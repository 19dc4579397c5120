import itertools
import math
import sys
import threading
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import pytest

from degenpoly import (
    Bernoulli,
    CustomMoments,
    IidSum,
    MomentProvider,
    OrderExceeded,
    Poly,
    Series,
    ShefferSequence,
    Uniform01,
    UnsamplableProvider,
    Zero,
    ZERO,
    ONE,
    LAM,
    X,
    Y,
    P,
    euler_polynomials,
    expect_falling_basis,
    expect_polynomial,
    falling_factorial,
    higher_euler,
    mc_estimate,
)
from degenpoly.families import Workspace, bernoulli_base, degenerate_exp
from degenpoly import randvar
from degenpoly.randvar import CHUNK, McEstimate
from oracles import copy_major_draws, independent_sum_moments, sample_chunks

half = Fraction(1, 2)


def test_uniform_moments():
    u = Uniform01()
    assert u.moment(0) == ONE
    assert u.moment(1) == Poly.const(half)
    assert u.moment(2) == Fraction(1, 3) - LAM / 2


def test_bernoulli_moments():
    assert Bernoulli(half).moment(2) == (ONE - LAM) / 2
    assert Bernoulli(P).moment(1) == P
    assert Bernoulli(P).moment(0) == ONE


def test_bernoulli_half_mgf_is_shifted_exponential():
    expected = (degenerate_exp(ONE) + Series([ONE])) * half
    assert Bernoulli(half).mgf().egf_coefficients(8) == expected.egf_coefficients(8)


def test_uniform_mgf_two_paths():
    # termwise integration must match the series form
    # (difference quotient of the exponential times t/log(1+λt))
    n = 10
    e1 = degenerate_exp(ONE)
    diff_quot = (e1 - Series([ONE])).div_t()
    log_factor = Series([ONE, ONE]).log().div_t().scale_t(LAM)
    quotient = diff_quot * log_factor.reciprocal()
    assert Uniform01().mgf().egf_coefficients(n) == quotient.egf_coefficients(n)


def test_zero_provider():
    z = Zero()
    assert z.mgf().egf_coefficients(6) == Series([ONE]).egf_coefficients(6)
    for n in range(6):
        assert ShefferSequence(z).polynomial(n, X) == falling_factorial(X, n)


def test_iid_sum_mgf_two_paths():
    u = Uniform01()
    for m in (2, 3):
        fold = IidSum(u, m).mgf().egf_coefficients(8)
        assert fold == u.mgf().pow(m).egf_coefficients(8)
        assert fold == u.mgf().pow_int(m).egf_coefficients(8)


def test_point_masses_are_the_certain_coins_their_sums_and_zero():
    certain = (Bernoulli(1), Bernoulli(0), IidSum(Bernoulli(1), 3), IidSum(IidSum(Bernoulli(0), 2), 2),
               Zero())
    uncertain = (Uniform01(), Bernoulli(Fraction(1, 2)), Bernoulli(P), IidSum(Uniform01(), 2),
                 IidSum(Bernoulli(Fraction(1, 3)), 4), CustomMoments([1, 2]))
    assert [provider.is_point_mass() for provider in certain] == [True] * len(certain)
    assert [provider.is_point_mass() for provider in uncertain] == [False] * len(uncertain)


def test_iid_sheffer_family_at_a_4300_digit_copy_count():
    # m certain ones sum to m, and e_λ^x / e_λ^m = e_λ^{x−m}: a read recurses a fixed depth
    m = 10**4299
    values = Workspace().sheffer(IidSum(Bernoulli(1), m), X).egf_coefficients(3)
    assert values == [falling_factorial(X - m, n) for n in range(4)]


def test_iid_sum_moment_convolves():
    u = Uniform01()
    two = IidSum(u, 2)
    explicit = independent_sum_moments(u, u, 6)
    for n in range(7):
        assert two.moment(n) == explicit.moment(n)


def test_moment_defaults_to_the_moment_series():
    # a provider that defines only its moment series reads moment n off coefficient n
    @dataclass(frozen=True)
    class SeriesOnly(MomentProvider):
        def mgf(self) -> Series:
            return degenerate_exp(P)

    provider = SeriesOnly()
    coefficients = degenerate_exp(P).egf_coefficients(6)
    assert [provider.moment(n) for n in range(7)] == coefficients
    assert coefficients[3] == falling_factorial(P, 3)


@pytest.mark.parametrize("depth", [1, 32])
def test_an_iid_sum_of_very_many_copies_reads_its_moments(depth):
    # E[(S)_{2,λ}] = m E[(Y)_{2,λ}] + m(m−1) E[Y]^2 for S a sum of m copies of Y, since
    # (y + z)_{n,λ} is of binomial type; a read no longer recurses once per bit of m
    m = 2 ** 1000 - 1
    provider, base = Bernoulli(P), Bernoulli(P)
    for _ in range(depth):
        provider, base = IidSum(provider, m), provider
    mu1, mu2 = base.moment(1), base.moment(2)
    assert provider.moment(2) == mu2 * m + mu1 * mu1 * (m * (m - 1))


def test_iid_sum_needs_copies():
    with pytest.raises(ValueError):
        IidSum(Uniform01(), 0)


def test_providers_compare_and_hash_by_value():
    # the Workspace keys its caches by provider, and recipes build equal providers apart
    u = Uniform01()
    for make in (lambda: Bernoulli(Fraction(1, 2)), lambda: Bernoulli(P),
                 lambda: IidSum(Uniform01(), 3), lambda: CustomMoments([1, 2])):
        first, second = make(), make()
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert {first: 1}[second] == 1
    assert Uniform01() != Zero()
    assert IidSum(u, 2) != IidSum(u, 3)
    assert Bernoulli(Fraction(1, 2)) != Bernoulli(Fraction(1, 3))
    assert IidSum(u, 2) != IidSum(Bernoulli(P), 2)
    assert Bernoulli(P) != P
    for provider, field in ((Bernoulli(P), "p"), (IidSum(u, 2), "m"), (CustomMoments([1]), "table"),
                            (u, "label")):
        with pytest.raises(AttributeError):
            setattr(provider, field, None)
    assert IidSum(u, 2).m == 2 and Bernoulli(P).p == P


def test_custom_moments_validation():
    with pytest.raises(ValueError):
        CustomMoments([Poly.const(2)])
    table = CustomMoments([ONE, P])
    assert table.moment(1) == P
    with pytest.raises(OrderExceeded):
        table.moment(2)


def test_mgf_constant_term_is_one():
    for provider in (Uniform01(), Bernoulli(P), IidSum(Bernoulli(half), 3), Zero()):
        assert provider.mgf().coefficient(0) == ONE


def test_sheffer_for_fair_coin_is_euler():
    seq = ShefferSequence(Bernoulli(half))
    euler = euler_polynomials(10, X)
    for n in range(11):
        assert seq.polynomial(n, X) == euler[n]


def test_sheffer_uniform_first_values():
    assert ShefferSequence(Uniform01()).polynomial(0, X) == ONE
    assert ShefferSequence(Uniform01()).polynomial(1, X) == X - half


def test_sheffer_inverse_relation():
    seq = ShefferSequence(Uniform01())
    product = seq.inverse_mgf * Uniform01().mgf()
    assert product.egf_coefficients(8) == Series([ONE]).egf_coefficients(8)


def test_sheffer_family_of_a_moment_table_ends_with_the_table():
    coin = Bernoulli(P)
    seq = ShefferSequence(CustomMoments([coin.moment(n) for n in range(4)]))
    assert seq.polynomials(3, X) == ShefferSequence(coin).polynomials(3, X)
    with pytest.raises(OrderExceeded):
        seq.polynomial(4, X)
    with pytest.raises(OrderExceeded):
        seq.polynomial(-1, X)


def test_expect_falling_basis():
    u = Uniform01()
    assert expect_falling_basis([ONE], u) == ONE
    assert expect_falling_basis([ZERO, ONE], u) == Poly.const(half)


def test_expectation_recovers_falling_factorials():
    # averaging the family over its own variable, all providers, symbolically
    for provider in (Uniform01(), Bernoulli(half), Bernoulli(P)):
        seq = ShefferSequence(provider)
        for n in range(9):
            shifted = seq.polynomial(n, X + Y)
            assert expect_polynomial(shifted, provider) == falling_factorial(X, n)


def test_expectation_example_n2():
    seq = ShefferSequence(Uniform01())
    shifted = seq.polynomial(2, X + Y)
    assert expect_polynomial(shifted, Uniform01()) == X ** 2 - LAM * X


def test_coin_iid_sums_give_higher_euler():
    for m in range(1, 6):
        seq = ShefferSequence(IidSum(Bernoulli(half), m))
        for n in range(11):
            assert seq.polynomial(n, X) == higher_euler(n, m, X)


def test_volkenborn_series_closed_form():
    n = 10
    seq = ShefferSequence(Uniform01())
    log_factor = Series([ONE, ONE]).log().div_t().scale_t(LAM)
    closed = log_factor * bernoulli_base() * degenerate_exp(X)
    for k in range(n + 1):
        assert seq.polynomial(k, X) == closed.egf_coefficient(k)


def test_unsamplable_providers():
    streams = [pytest.importorskip("numpy").random.default_rng(0)]
    with pytest.raises(UnsamplableProvider):
        Zero().sample_array(streams, 3)
    with pytest.raises(UnsamplableProvider):
        CustomMoments([ONE]).sample_array(streams, 3)
    with pytest.raises(UnsamplableProvider):
        Bernoulli(P).sample_array(streams, 3)
    with pytest.raises(UnsamplableProvider):
        Bernoulli(Fraction(3, 2)).sample_array(streams, 3)


_LAYOUT_PROVIDERS = [
    Uniform01(),
    Bernoulli(Fraction(1, 3)),
    IidSum(Uniform01(), 3),
    IidSum(IidSum(Bernoulli(half), 2), 2),
]


# one short chunk; a last chunk one short; whole chunks; whole chunks and a remainder
@pytest.mark.parametrize("samples", [CHUNK - 1, 2 * CHUNK - 1, 2 * CHUNK, 4 * CHUNK + 7])
@pytest.mark.parametrize("provider", _LAYOUT_PROVIDERS, ids=lambda p: p.label())
def test_chunked_draws_equal_the_copy_major_layout(provider, samples):
    np = pytest.importorskip("numpy")
    chunks = list(sample_chunks(provider, samples, seed=11))
    assert [len(c) for c in chunks[:-1]] == [CHUNK] * (len(chunks) - 1)
    expected = copy_major_draws(provider, np.random.default_rng(11), samples)
    assert np.array_equal(np.concatenate(chunks), expected)


def _thm_3_1_target(n, provider):
    return ShefferSequence(provider).polynomial(n, X + Y)


def test_mc_is_deterministic():
    target = _thm_3_1_target(2, Uniform01())
    point = {"λ": Fraction(1, 8), "x": Fraction(1, 4)}
    first = mc_estimate(target, Uniform01(), point, 2000, seed=42)
    second = mc_estimate(target, Uniform01(), point, 2000, seed=42)
    assert first == second
    third = mc_estimate(target, Uniform01(), point, 2000, seed=43)
    assert third.estimate != first.estimate


def test_mc_within_three_sigma():
    point = {"λ": Fraction(1, 8), "x": Fraction(1, 4)}
    target = _thm_3_1_target(1, Uniform01())
    exact = float(falling_factorial(X, 1).evaluate(point))
    result = mc_estimate(target, Uniform01(), point, 100_000, seed=42)
    assert abs(result.estimate - exact) <= 3 * result.std_error

    coin = Bernoulli(half)
    identity = Poly.var("y")
    result = mc_estimate(identity, coin, {}, 100_000, seed=42)
    assert abs(result.estimate - 0.5) <= 3 * result.std_error


def test_mc_error_shrinks_with_more_samples():
    point = {"λ": Fraction(1, 8), "x": Fraction(1, 4)}
    target = _thm_3_1_target(2, Uniform01())
    exact = float(falling_factorial(X, 2).evaluate(point))

    def mean_abs_error(samples):
        errors = [
            abs(mc_estimate(target, Uniform01(), point, samples, seed=s).estimate - exact)
            for s in range(8)
        ]
        return sum(errors) / len(errors)

    small, medium, large = (mean_abs_error(s) for s in (2_000, 18_000, 162_000))
    assert large < medium < small
    final = mc_estimate(target, Uniform01(), point, 162_000, seed=0)
    assert abs(final.estimate - exact) <= 3 * final.std_error


@pytest.mark.parametrize("provider", [Uniform01(), IidSum(Bernoulli(Fraction(1, 3)), 2)],
                         ids=lambda p: p.label())
def test_mc_merge_matches_the_full_array(provider):
    np = pytest.importorskip("numpy")
    samples = 3 * CHUNK + 5
    target = 3 * Y ** 2 - Y + half
    result = mc_estimate(target, provider, {}, samples, seed=3)
    draws = copy_major_draws(provider, np.random.default_rng(3), samples)
    values = np.polyval([3.0, -1.0, 0.5], draws)
    assert result.estimate == pytest.approx(np.mean(values), rel=1e-12)
    assert result.std_error == pytest.approx(np.std(values, ddof=1) / np.sqrt(samples), rel=1e-12)


def test_mc_merge_starts_from_the_first_chunk():
    # a huge constant target: merged from count 0, the first chunk's delta² · 0 was inf · 0 = nan
    for samples in (1000, 2 * CHUNK + 3):
        result = mc_estimate(Poly.const(10 ** 200), Uniform01(), {}, samples, seed=0)
        assert (result.estimate, result.std_error) == (1e200, 0.0)


# c·U spreads c²/12 per draw, so one chunk's centred sum of squares is about
# c²·CHUNK/12 = 7/8 of the float maximum: finite alone, past it once two are merged
_MERGE_OVERFLOW_SCALE = math.isqrt(21 * int(sys.float_info.max) // (2 * CHUNK))


@pytest.mark.parametrize("target, samples", [
    (Poly.const(10 ** 154) * Y * Y, 1000),  # a sum in one chunk passes the float range
    (Poly.const(_MERGE_OVERFLOW_SCALE) * Y, 2 * CHUNK),  # the merged spread does
], ids=["chunk", "merge"])
def test_mc_past_the_float_range_raises_overflow_error(target, samples):
    pytest.importorskip("numpy")
    if samples > CHUNK:  # the merge case: each chunk's own figures stay finite
        coeffs = [float(_MERGE_OVERFLOW_SCALE), 0.0]
        chunks = randvar._part_moments(Uniform01(), samples, 0, 0, 2, coeffs)
        assert len(chunks) == 2
        assert all(math.isfinite(mean) and math.isfinite(m2) for _, mean, m2 in chunks)
    with pytest.raises(OverflowError):  # numpy warns of nothing: the warnings filter is "error"
        mc_estimate(target, Uniform01(), {}, samples, seed=0)


def test_mc_single_sample_has_no_spread():
    np = pytest.importorskip("numpy")
    result = mc_estimate(Y, Uniform01(), {}, 1, seed=5)
    assert result.estimate == np.random.default_rng(5).random()
    assert result.std_error == 0.0


def test_mc_constant_target():
    for samples in (100, 2 * CHUNK + 3):
        result = mc_estimate(ONE, Uniform01(), {}, samples, seed=0)
        assert result.estimate == 1.0
        assert result.std_error == 0.0


def test_mc_rejects_leftover_variables():
    target = _thm_3_1_target(1, Uniform01())
    with pytest.raises(ValueError):
        mc_estimate(target, Uniform01(), {"λ": 0}, 10, seed=0)


def test_mc_iid_sum_sampling():
    point = {"λ": Fraction(1, 8), "x": Fraction(1, 4)}
    outer = IidSum(Bernoulli(half), 2)
    inner = IidSum(Bernoulli(half), 1)
    target = ShefferSequence(outer).polynomial(3, X + Y)
    exact = float(higher_euler(3, 1, X).evaluate(point))
    result = mc_estimate(target, inner, point, 200_000, seed=99)
    assert abs(result.estimate - exact) <= 3 * result.std_error


def _serial_mc(target, provider, point, samples, seed) -> McEstimate:
    """The estimator written out serially: the copy-major draws cut at CHUNK,
    np.polyval on each chunk, and the chunks merged in order."""
    np = pytest.importorskip("numpy")
    pinned = target.substitute(point)
    coeffs = [float(pinned.coefficient_of("y", k).constant_value())
              for k in range(pinned.degree("y"), -1, -1)]
    draws = copy_major_draws(provider, np.random.default_rng(seed), samples)
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, samples, CHUNK):
        values = np.polyval(coeffs, draws[start:start + CHUNK])
        size = len(values)
        chunk_mean = float(values.mean())
        chunk_m2 = float(np.square(values - chunk_mean).sum())
        total = count + size
        delta = chunk_mean - mean
        mean += delta * (size / total)
        m2 += chunk_m2 + delta * delta * (count * size / total)
        count = total
    std_error = float(np.sqrt(m2 / (samples - 1)) / np.sqrt(samples))
    return McEstimate(estimate=mean, std_error=std_error, samples=samples)


_MC_POINT = {"λ": Fraction(1, 8), "x": Fraction(1, 4)}
_MC_TARGETS = {
    "degree0": Poly.const(Fraction(5, 3)) + LAM,
    "degree1": 2 * Y - X,
    "degree4": _thm_3_1_target(4, IidSum(Uniform01(), 3)),
}


@pytest.mark.parametrize("target", _MC_TARGETS, ids=str)
@pytest.mark.parametrize("samples", [CHUNK - 1, 2 * CHUNK - 1, 6 * CHUNK + 5])
@pytest.mark.parametrize("provider", _LAYOUT_PROVIDERS, ids=lambda p: p.label())
def test_mc_equals_the_serial_oracle_bit_for_bit(provider, samples, target):
    target = _MC_TARGETS[target]
    result = mc_estimate(target, provider, _MC_POINT, samples, seed=17)
    assert result == _serial_mc(target, provider, _MC_POINT, samples, seed=17)


@pytest.mark.parametrize("provider", _LAYOUT_PROVIDERS, ids=lambda p: p.label())
def test_mc_estimate_does_not_depend_on_the_cpu_count(provider, monkeypatch):
    pytest.importorskip("numpy")
    target = _MC_TARGETS["degree4"]
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for cpus in (1, 2, 3):
            monkeypatch.setattr(randvar, "_cpu_count", lambda cpus=cpus: cpus)
            results.append(mc_estimate(target, provider, _MC_POINT, 3 * CHUNK + 5, seed=23))
    finally:
        sys.setswitchinterval(interval)
    assert results[0] == results[1] == results[2]


@dataclass(frozen=True)
class _MeetingProvider(MomentProvider):
    """Draws from ``base``; each part waits at its first chunk until every part holds its buffer."""

    base: MomentProvider
    parts: int

    def __post_init__(self):
        object.__setattr__(self, "columns", self.base.columns)
        object.__setattr__(self, "buffers", self.base.buffers)
        object.__setattr__(self, "barrier", threading.Barrier(self.parts, timeout=60))
        object.__setattr__(self, "met", threading.local())

    def sample_array(self, streams, size, out=None):
        if size and not getattr(self.met, "done", False):
            self.met.done = True
            self.barrier.wait()
        return self.base.sample_array(streams, size, out)


def _traced_peak(target, provider, samples) -> int:
    """Bytes ``mc_estimate`` holds at its peak, past what was held when it started."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        mc_estimate(target, provider, _MC_POINT, samples, seed=29)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("provider", [Uniform01(), Bernoulli(half), IidSum(Uniform01(), 3)],
                         ids=lambda p: p.label())
def test_mc_memory_is_a_few_chunks_per_part(provider, monkeypatch):
    # tracemalloc sees numpy's data buffers: each part holds max(buffers, 2) chunks of
    # floats however many samples it draws, and here every part holds them at once
    pytest.importorskip("numpy")
    target = _MC_TARGETS["degree4"]
    mc_estimate(target, provider, _MC_POINT, 10, seed=29)  # fills the exact layer's caches
    for cpus in (1, 2, 3):
        monkeypatch.setattr(randvar, "_cpu_count", lambda cpus=cpus: cpus)
        buffers = cpus * max(provider.buffers, 2) * CHUNK * 8
        few, many = (_traced_peak(target, _MeetingProvider(provider, cpus), samples)
                     for samples in (8 * CHUNK + 5, 64 * CHUNK + 5))
        assert buffers <= few <= buffers + (64 << 10), (cpus, few, buffers)
        assert buffers <= many <= buffers + (64 << 10), (cpus, many, buffers)
        assert abs(many - few) <= 16 << 10, (cpus, few, many)


class _ChunkFailure(Exception):
    pass


@dataclass(frozen=True)
class _FailingUniform(Uniform01):
    """Uniform01 whose draws fail after the first chunk, or in worker threads only."""

    in_workers_only: bool = False

    def __post_init__(self):
        object.__setattr__(self, "calls", itertools.count())

    def sample_array(self, streams, size, out=None):
        if self.in_workers_only:
            failed = threading.current_thread() is not threading.main_thread()
        else:
            failed = next(self.calls) > 0
        if failed:
            raise _ChunkFailure("a later chunk failed")
        return super().sample_array(streams, size, out)


@pytest.mark.parametrize("cpus, in_workers_only",
                         [(1, False), (2, False), (3, False), (2, True), (3, True)])
def test_a_failing_chunk_reaches_the_caller_and_no_thread_survives(cpus, in_workers_only, monkeypatch):
    pytest.importorskip("numpy")
    monkeypatch.setattr(randvar, "_cpu_count", lambda: cpus)
    before = threading.active_count()
    with pytest.raises(_ChunkFailure):
        mc_estimate(Y, _FailingUniform(in_workers_only), {}, 3 * CHUNK + 5, seed=1)
    assert threading.active_count() == before
