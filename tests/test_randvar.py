from fractions import Fraction

import pytest

from degenpoly import (
    Bernoulli,
    CustomMoments,
    IidSum,
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
    independent_sum_moments,
    mc_estimate,
)
from degenpoly.families import bernoulli_base, degenerate_exp
from degenpoly.randvar import CHUNK, sample_chunks
from oracles import copy_major_draws

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
    expected = (degenerate_exp(ONE, 8) + Series.one(8)) * half
    assert Bernoulli(half).mgf(8) == expected


def test_uniform_mgf_two_paths():
    # termwise integration must match the series form
    # (difference quotient of the exponential times t/log(1+λt))
    n = 10
    e1 = degenerate_exp(ONE, n + 1)
    diff_quot = (e1 - Series.one(n + 1)).div_t()
    log_factor = Series([ONE, ONE] + [ZERO] * n).log().div_t().scale_t(LAM)
    assert Uniform01().mgf(n) == diff_quot * log_factor.reciprocal()


def test_zero_provider():
    z = Zero()
    assert z.mgf(6) == Series.one(6)
    for n in range(6):
        assert ShefferSequence(z, n).polynomial(n, X) == falling_factorial(X, n)


def test_iid_sum_mgf_two_paths():
    u = Uniform01()
    for m in (2, 3):
        fold = IidSum(u, m).mgf(8)
        assert fold == u.mgf(8).pow(m)
        assert fold == u.mgf(8).pow_int(m)


def test_iid_sum_moment_convolves():
    u = Uniform01()
    two = IidSum(u, 2)
    explicit = independent_sum_moments(u, u, 6)
    for n in range(7):
        assert two.moment(n) == explicit.moment(n)


def test_iid_sum_needs_copies():
    with pytest.raises(ValueError):
        IidSum(Uniform01(), 0)


def test_custom_moments_validation():
    with pytest.raises(ValueError):
        CustomMoments([Poly.const(2)])
    table = CustomMoments([ONE, P])
    assert table.moment(1) == P
    with pytest.raises(OrderExceeded):
        table.moment(2)


def test_mgf_constant_term_is_one():
    for provider in (Uniform01(), Bernoulli(P), IidSum(Bernoulli(half), 3), Zero()):
        assert provider.mgf(5).coefficient(0) == ONE


def test_sheffer_for_fair_coin_is_euler():
    seq = ShefferSequence(Bernoulli(half), 10)
    euler = euler_polynomials(10, X)
    for n in range(11):
        assert seq.polynomial(n, X) == euler[n]


def test_sheffer_uniform_first_values():
    assert ShefferSequence(Uniform01(), 0).polynomial(0, X) == ONE
    assert ShefferSequence(Uniform01(), 1).polynomial(1, X) == X - half


def test_sheffer_inverse_relation():
    seq = ShefferSequence(Uniform01(), 8)
    assert seq.inverse_mgf * Uniform01().mgf(8) == Series.one(8)


def test_sheffer_order_bound():
    with pytest.raises(OrderExceeded):
        ShefferSequence(Uniform01(), 3).polynomial(4, X)


def test_expect_falling_basis():
    u = Uniform01()
    assert expect_falling_basis([ONE], u) == ONE
    assert expect_falling_basis([ZERO, ONE], u) == Poly.const(half)


def test_expectation_recovers_falling_factorials():
    # averaging the family over its own variable, all providers, symbolically
    for provider in (Uniform01(), Bernoulli(half), Bernoulli(P)):
        seq = ShefferSequence(provider, 8)
        for n in range(9):
            shifted = seq.polynomial(n, X + Y)
            assert expect_polynomial(shifted, provider) == falling_factorial(X, n)


def test_expectation_example_n2():
    seq = ShefferSequence(Uniform01(), 4)
    shifted = seq.polynomial(2, X + Y)
    assert expect_polynomial(shifted, Uniform01()) == X ** 2 - LAM * X


def test_coin_iid_sums_give_higher_euler():
    for m in range(1, 6):
        seq = ShefferSequence(IidSum(Bernoulli(half), m), 10)
        for n in range(11):
            assert seq.polynomial(n, X) == higher_euler(n, m, X)


def test_volkenborn_series_closed_form():
    n = 10
    seq = ShefferSequence(Uniform01(), n)
    log_factor = Series([ONE, ONE] + [ZERO] * n).log().div_t().scale_t(LAM)
    closed = log_factor * bernoulli_base(n) * degenerate_exp(X, n)
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


@pytest.mark.parametrize("samples", [CHUNK - 1, CHUNK, 2 * CHUNK + 7])
@pytest.mark.parametrize("provider", _LAYOUT_PROVIDERS, ids=lambda p: p.label())
def test_chunked_draws_equal_the_copy_major_layout(provider, samples):
    np = pytest.importorskip("numpy")
    chunks = list(sample_chunks(provider, samples, seed=11))
    assert [len(c) for c in chunks[:-1]] == [CHUNK] * (len(chunks) - 1)
    expected = copy_major_draws(provider, np.random.default_rng(11), samples)
    assert np.array_equal(np.concatenate(chunks), expected)


def _thm_3_1_target(n, provider, order=None):
    seq = ShefferSequence(provider, order if order is not None else n)
    return seq.polynomial(n, X + Y)


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
    target = ShefferSequence(outer, 3).polynomial(3, X + Y)
    exact = float(higher_euler(3, 1, X).evaluate(point))
    result = mc_estimate(target, inner, point, 200_000, seed=99)
    assert abs(result.estimate - exact) <= 3 * result.std_error
