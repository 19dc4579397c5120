import sys
import threading
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenpoly import (
    Bernoulli,
    NonUnitConstantTerm,
    NonzeroConstantTerm,
    OrderExceeded,
    Poly,
    Series,
    ZERO,
    ONE,
    LAM,
    X,
    Y,
    A,
    B,
    P,
    Uniform01,
)
from degenpoly import families
from degenpoly.families import bernoulli_base, degenerate_exp, euler_base

import oracles

N = 8


def geometric_alternating(order):
    return Series(Poly.const((-1) ** n) for n in range(order + 1))


def one_plus_t():
    return Series([ONE, ONE])


def values(series, n_max=N):
    """What a comparison of two series reads: their exponential coefficients through n_max."""
    return series.egf_coefficients(n_max)


def test_cauchy_product():
    f = one_plus_t()
    g = Series([ONE, -ONE])
    product = f * g
    assert product.coefficient(0) == ONE
    assert product.coefficient(1) == ZERO
    assert product.coefficient(2) == -ONE
    assert all(not product.coefficient(k) for k in range(3, N + 1))


def test_exponential_addition():
    ex = degenerate_exp(X)
    ey = degenerate_exp(Y)
    combined = ex * ey
    assert combined.egf_coefficient(2) == (X + Y) * (X + Y - LAM)
    assert values(combined) == values(degenerate_exp(X + Y))


def test_reciprocal_geometric():
    assert values(one_plus_t().reciprocal()) == values(geometric_alternating(N))


def test_reciprocal_euler_constant():
    e1 = degenerate_exp(ONE)
    half_sum = (e1 + Series([ONE])) * Fraction(1, 2)
    assert half_sum.reciprocal().coefficient(1) == Poly.const(Fraction(-1, 2))


def test_reciprocal_round_trip():
    f = bernoulli_base()
    assert values(f.reciprocal().reciprocal()) == values(f)
    assert values(f * f.reciprocal()) == values(Series([ONE]))


def test_reciprocal_rejects_nonunit():
    with pytest.raises(NonUnitConstantTerm):
        Series([X, ONE]).reciprocal()
    with pytest.raises(NonUnitConstantTerm):
        Series([ZERO, ONE]).reciprocal()


def test_log_of_one_plus_t():
    log = one_plus_t().log()
    assert log.coefficient(0) == ZERO
    for n in range(1, N + 1):
        assert log.coefficient(n) == Poly.const(Fraction((-1) ** (n - 1), n))


def test_log_of_degenerate_exponential():
    # closed form: coefficient n is (-1)^(n-1) λ^(n-1) / n
    log = degenerate_exp(ONE).log()
    for n in range(1, N + 1):
        assert log.coefficient(n) == LAM ** (n - 1) * Fraction((-1) ** (n - 1), n)
    assert values(log) == oracles.log_by_composition(degenerate_exp(ONE), N)


def test_log_matches_composition_oracle():
    f = euler_base()
    assert values(f.log(), 6) == oracles.log_by_composition(f, 6)


def test_log_rejects_nonunit():
    with pytest.raises(NonUnitConstantTerm):
        Series([ZERO, ONE]).log()


def test_exp_coefficients():
    expt = Series([ZERO, ONE]).exp()
    for n in range(N + 1):
        assert expt.coefficient(n) == Poly.const(Fraction(1, factorial(n)))


def test_exp_log_inverse_pair():
    f = one_plus_t()
    assert values(f.log().exp()) == values(f)
    u = Series([ZERO, LAM, X])
    assert values(u.exp().log()) == values(u)
    assert values(u.exp()) == oracles.exp_by_powers(u, N)


def test_exp_rejects_nonzero_constant():
    with pytest.raises(NonzeroConstantTerm):
        Series([ONE]).exp()


def test_symbolic_power_binomial_series():
    powed = one_plus_t().pow(A)
    for n in range(N + 1):
        assert powed.coefficient(n) == oracles.binomial_coefficient_poly(n)


def test_power_trivial_exponents():
    f = bernoulli_base()
    assert f.pow(1) is f
    with pytest.raises(NonUnitConstantTerm):
        Series([2, 1]).pow(1)
    assert values(f.pow(0)) == values(Series([ONE]))
    assert values(f.pow_int(1)) == values(f)
    assert values(f.pow_int(0)) == values(Series([ONE]))


def test_symbolic_power_first_order():
    # (e_λ(t)-1)/t = 1 + (1-λ)t/2 + O(t^2), so the -a-th power starts 1 - a(1-λ)t/2
    powed = bernoulli_base().pow(A)
    assert powed.coefficient(1) == A * (LAM - 1) / 2


def test_power_laws_symbolic():
    f = bernoulli_base()
    assert values(f.pow(A) * f.pow(B), 6) == values(f.pow(A + B), 6)
    for k in (2, 3):
        assert values(f.pow(A).pow_int(k), 6) == values(f.pow(A * k), 6)


def test_symbolic_power_matches_integer_folds():
    f = euler_base()
    for k in range(-2, 5):
        assert values(f.pow(k), 6) == values((f.log() * k).exp(), 6)


def test_an_integer_order_takes_no_logarithm(monkeypatch):
    logs = []
    log = Series.log

    def spy(self):
        logs.append(self)
        return log(self)

    monkeypatch.setattr(Series, "log", spy)
    f = bernoulli_base()
    for k in (2, 3, -1):
        assert values(f.pow(k), 6) == values(f.pow_int(k), 6)
    assert logs == []
    for order in (A, Fraction(1, 2)):
        f.pow(order)
        assert logs.pop() is f and not logs


def test_pow_int_takes_every_integer_and_only_integers():
    for provider in (Uniform01(), Bernoulli(P)):
        f = provider.mgf()
        for exponent in (1.5, Fraction(1, 2)):
            with pytest.raises(ValueError):
                f.pow_int(exponent)
        # a negative power is the reciprocal of the positive one
        assert values(f.pow_int(-3) * f.pow_int(3)) == values(Series([ONE]))


def test_scale_t():
    assert values(one_plus_t().scale_t(2), 3) == values(Series([ONE, Poly.const(2), ZERO, ZERO]), 3)
    expt = Series([ZERO, ONE]).exp()
    scaled = expt.scale_t(LAM)
    for n in range(4):
        assert scaled.coefficient(n) == LAM ** n / factorial(n)


def test_scale_t_matches_parameter_halving():
    # doubling t in the halved-parameter series reproduces the two-base product
    halved = (bernoulli_base() * degenerate_exp(X)).map_coefficients(
        lambda c: c.substitute({"λ": LAM / 2, "x": X / 2})
    )
    lhs = halved.scale_t(2)
    rhs = bernoulli_base() * euler_base() * degenerate_exp(X)
    assert values(lhs) == values(rhs)


def test_div_t():
    e1 = degenerate_exp(ONE)
    zero_head = e1 - Series([ONE])
    shifted = zero_head.div_t()
    assert shifted.coefficient(0) == ONE
    assert all(shifted.coefficient(k) == zero_head.coefficient(k + 1) for k in range(N))
    with pytest.raises(NonzeroConstantTerm):
        one_plus_t().div_t()


def test_egf_coefficient():
    ex = degenerate_exp(X)
    assert ex.egf_coefficient(2) == X ** 2 - LAM * X
    assert ex.egf_coefficient(0) == ONE
    bernoulli = bernoulli_base() * degenerate_exp(ZERO)
    assert bernoulli.egf_coefficient(2) == Fraction(1, 6) - LAM ** 2 / 6
    with pytest.raises(OrderExceeded):
        ex.egf_coefficient(-1)


def test_threads_reading_one_shared_base_agree():
    # a read extends the shared base in place; the module lock keeps one extension at a time
    n_max, threads, rounds = 20, 6, 4
    expected = oracles.euler_numbers_rec(n_max - 1)
    found = []

    def read(base, start):
        start.wait(timeout=60)
        for n in range(n_max):
            try:
                found.append(base.egf_coefficient(n) == expected[n])
            except Exception:
                found.append(False)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for _ in range(rounds):
            families.euler_base.cache_clear()
            start = threading.Barrier(threads)
            workers = [threading.Thread(target=read, args=(euler_base(), start))
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
        families.euler_base.cache_clear()
    assert len(found) == rounds * threads * n_max and found.count(False) == 0


rational_polys = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(Poly.const)


@settings(max_examples=30, deadline=None)
@given(st.lists(rational_polys, min_size=3, max_size=7))
def test_exp_log_round_trip_random(tail):
    f = Series([ONE] + tail)
    assert values(f.log().exp()) == values(f)
    assert values(f * f.reciprocal()) == values(Series([ONE]))


@settings(max_examples=30, deadline=None)
@given(st.lists(rational_polys, min_size=3, max_size=7))
def test_log_exp_round_trip_random(tail):
    u = Series([ZERO] + tail)
    assert values(u.exp().log()) == values(u)
