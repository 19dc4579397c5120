from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenpoly import (
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
)
from degenpoly.families import bernoulli_base, bernoulli_series, degenerate_exp, euler_base

import oracles

N = 8


def geometric_alternating(order):
    return Series(Poly.const((-1) ** n) for n in range(order + 1))


def one_plus_t(order):
    return Series([ONE, ONE] + [ZERO] * (order - 1))


def test_cauchy_product():
    f = one_plus_t(N)
    g = Series([ONE, -ONE] + [ZERO] * (N - 1))
    product = f * g
    assert product.coefficient(0) == ONE
    assert product.coefficient(1) == ZERO
    assert product.coefficient(2) == -ONE
    assert all(not product.coefficient(k) for k in range(3, N + 1))


def test_exponential_addition():
    ex = degenerate_exp(X, N)
    ey = degenerate_exp(Y, N)
    combined = ex * ey
    assert combined.egf_coefficient(2) == (X + Y) * (X + Y - LAM)
    assert combined == degenerate_exp(X + Y, N)


def test_reciprocal_geometric():
    assert one_plus_t(N).reciprocal() == geometric_alternating(N)


def test_reciprocal_euler_constant():
    e1 = degenerate_exp(ONE, N)
    half_sum = (e1 + Series.one(N)) * Fraction(1, 2)
    assert half_sum.reciprocal().coefficient(1) == Poly.const(Fraction(-1, 2))


def test_reciprocal_round_trip():
    f = bernoulli_base(N)
    assert f.reciprocal().reciprocal() == f
    assert f * f.reciprocal() == Series.one(N)


def test_reciprocal_rejects_nonunit():
    with pytest.raises(NonUnitConstantTerm):
        Series([X, ONE]).reciprocal()
    with pytest.raises(NonUnitConstantTerm):
        Series([ZERO, ONE]).reciprocal()


def test_log_of_one_plus_t():
    log = one_plus_t(N).log()
    assert log.coefficient(0) == ZERO
    for n in range(1, N + 1):
        assert log.coefficient(n) == Poly.const(Fraction((-1) ** (n - 1), n))


def test_log_of_degenerate_exponential():
    # closed form: coefficient n is (-1)^(n-1) λ^(n-1) / n
    log = degenerate_exp(ONE, N).log()
    for n in range(1, N + 1):
        assert log.coefficient(n) == LAM ** (n - 1) * Fraction((-1) ** (n - 1), n)
    assert log == oracles.log_by_composition(degenerate_exp(ONE, N))


def test_log_matches_composition_oracle():
    f = euler_base(6)
    assert f.log() == oracles.log_by_composition(f)


def test_log_rejects_nonunit():
    with pytest.raises(NonUnitConstantTerm):
        Series([ZERO, ONE]).log()


def test_exp_coefficients():
    expt = Series([ZERO, ONE] + [ZERO] * (N - 1)).exp()
    for n in range(N + 1):
        assert expt.coefficient(n) == Poly.const(Fraction(1, factorial(n)))


def test_exp_log_inverse_pair():
    f = one_plus_t(N)
    assert f.log().exp() == f
    u = Series([ZERO, LAM, X] + [ZERO] * (N - 2))
    assert u.exp().log() == u
    assert u.exp() == oracles.exp_by_powers(u)


def test_exp_rejects_nonzero_constant():
    with pytest.raises(NonzeroConstantTerm):
        Series.one(N).exp()


def test_symbolic_power_binomial_series():
    powed = one_plus_t(N).pow(A)
    for n in range(N + 1):
        assert powed.coefficient(n) == oracles.binomial_coefficient_poly(n)


def test_power_trivial_exponents():
    f = bernoulli_base(N)
    assert f.pow(1) is f
    with pytest.raises(NonUnitConstantTerm):
        Series([2, 1]).pow(1)
    assert f.pow(0) == Series.one(N)
    assert f.pow_int(1) == f
    assert f.pow_int(0) == Series.one(N)


def test_symbolic_power_first_order():
    # (e_λ(t)-1)/t = 1 + (1-λ)t/2 + O(t^2), so the -a-th power starts 1 - a(1-λ)t/2
    powed = bernoulli_base(N).pow(A)
    assert powed.coefficient(1) == A * (LAM - 1) / 2


def test_power_laws_symbolic():
    f = bernoulli_base(6)
    assert f.pow(A) * f.pow(B) == f.pow(A + B)
    for k in (2, 3):
        assert f.pow(A).pow_int(k) == f.pow(A * k)


def test_symbolic_power_matches_integer_folds():
    f = euler_base(6)
    for k in range(5):
        assert f.pow(k) == f.pow_int(k)


def test_pow_int_rejects_negative():
    with pytest.raises(ValueError):
        Series.one(3).pow_int(-1)


def test_scale_t():
    assert one_plus_t(3).scale_t(2) == Series([ONE, Poly.const(2), ZERO, ZERO])
    expt = Series([ZERO, ONE, ZERO, ZERO]).exp()
    scaled = expt.scale_t(LAM)
    for n in range(4):
        assert scaled.coefficient(n) == LAM ** n / factorial(n)


def test_scale_t_matches_parameter_halving():
    # doubling t in the halved-parameter series reproduces the two-base product
    halved = bernoulli_series(X, N).map_coefficients(
        lambda c: c.substitute({"λ": LAM / 2, "x": X / 2})
    )
    lhs = halved.scale_t(2)
    rhs = bernoulli_base(N) * euler_base(N) * degenerate_exp(X, N)
    assert lhs == rhs


def test_div_t():
    e1 = degenerate_exp(ONE, N)
    zero_head = e1 - Series.one(N)
    shifted = zero_head.div_t()
    assert shifted.coefficient(0) == ONE
    assert shifted.order == N - 1
    assert all(shifted.coefficient(k) == zero_head.coefficient(k + 1) for k in range(N))
    with pytest.raises(NonzeroConstantTerm):
        one_plus_t(N).div_t()


def test_div_t_needs_an_order():
    with pytest.raises(OrderExceeded):
        Series([ZERO]).div_t()


def test_egf_coefficient():
    ex = degenerate_exp(X, N)
    assert ex.egf_coefficient(2) == X ** 2 - LAM * X
    assert ex.egf_coefficient(0) == ONE
    assert bernoulli_series(ZERO, 4).egf_coefficient(2) == Fraction(1, 6) - LAM ** 2 / 6
    with pytest.raises(OrderExceeded):
        ex.egf_coefficient(N + 1)


def test_min_order_arithmetic():
    longer = Series.one(10)
    shorter = one_plus_t(4)
    assert (longer * shorter).order == 4
    assert (longer + shorter).order == 4
    assert (longer - shorter).order == 4


rational_polys = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(Poly.const)


@settings(max_examples=30, deadline=None)
@given(st.lists(rational_polys, min_size=3, max_size=7))
def test_exp_log_round_trip_random(tail):
    f = Series([ONE] + tail)
    assert f.log().exp() == f
    assert f * f.reciprocal() == Series.one(f.order)


@settings(max_examples=30, deadline=None)
@given(st.lists(rational_polys, min_size=3, max_size=7))
def test_log_exp_round_trip_random(tail):
    u = Series([ZERO] + tail)
    assert u.exp().log() == u
