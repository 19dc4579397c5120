from fractions import Fraction
from math import comb, factorial

import pytest

from degenpoly import (
    IndexOutOfRange,
    Poly,
    Series,
    ZERO,
    ONE,
    LAM,
    X,
    A,
    B,
    bernoulli_deg,
    bernoulli_polynomials,
    euler_deg,
    euler_polynomials,
    falling_basis_coefficients,
    falling_factorial,
    higher_bernoulli,
    higher_euler,
    sheffer_type,
    stirling_first,
)
from degenpoly import P, Bernoulli, IidSum, ShefferSequence, Uniform01
from degenpoly import families
from degenpoly.families import FamilyId, degenerate_exp

import oracles

half = Fraction(1, 2)

BERNOULLI_NUMBERS = [
    ONE,
    LAM / 2 - half,
    Fraction(1, 6) - LAM ** 2 / 6,
    LAM ** 3 / 4 - LAM / 4,
    LAM ** 2 * Fraction(2, 3) - LAM ** 4 * Fraction(19, 30) - Fraction(1, 30),
    LAM / 4 - LAM ** 3 * Fraction(5, 2) + LAM ** 5 * Fraction(9, 4),
]

EULER_NUMBERS = [
    ONE,
    Poly.const(-half),
    LAM / 2,
    Fraction(1, 4) - LAM ** 2,
    LAM ** 3 * 3 - LAM * Fraction(3, 2),
    LAM ** 2 * Fraction(35, 4) - LAM ** 4 * 12 - half,
]


def test_falling_factorial_basics():
    assert falling_factorial(X, 0) == ONE
    assert falling_factorial(X, 2) == X ** 2 - LAM * X
    assert falling_factorial(ONE, 3) == ONE - LAM * 3 + LAM ** 2 * 2
    with pytest.raises(ValueError):
        falling_factorial(X, -1)


def test_degenerate_exp_basics():
    assert degenerate_exp(ZERO, 5) == Series.one(5)
    assert degenerate_exp(ONE, 5).coefficient(2) == (ONE - LAM) / 2


def test_bernoulli_golden_values():
    assert bernoulli_polynomials(5) == BERNOULLI_NUMBERS
    for n, expected in enumerate(BERNOULLI_NUMBERS):
        assert bernoulli_deg(n) == expected


def test_euler_golden_values():
    assert euler_polynomials(5) == EULER_NUMBERS
    for n, expected in enumerate(EULER_NUMBERS):
        assert euler_deg(n) == expected


def test_bernoulli_polynomial_at_x():
    assert bernoulli_deg(1, X) == X - half + LAM / 2


def test_recurrence_oracle_values():
    bernoulli_rec = oracles.bernoulli_numbers_rec(5)
    euler_rec = oracles.euler_numbers_rec(5)
    assert bernoulli_rec[0] == ONE
    assert bernoulli_rec[3] == LAM ** 3 / 4 - LAM / 4
    assert bernoulli_rec[5] == LAM / 4 - LAM ** 3 * Fraction(5, 2) + LAM ** 5 * Fraction(9, 4)
    assert euler_rec[2] == LAM / 2
    assert euler_rec[4] == LAM ** 3 * 3 - LAM * Fraction(3, 2)
    assert euler_rec[5] == LAM ** 2 * Fraction(35, 4) - LAM ** 4 * 12 - half


def test_series_and_recurrence_paths_agree():
    bern = bernoulli_polynomials(20)
    euler = euler_polynomials(20)
    bernoulli_rec = oracles.bernoulli_numbers_rec(20)
    euler_rec = oracles.euler_numbers_rec(20)
    for n in range(21):
        assert bern[n] == bernoulli_rec[n]
        assert euler[n] == euler_rec[n]


def test_classical_limits():
    n_max = 12
    classical_b = oracles.classical_bernoulli(n_max)
    classical_e = oracles.classical_euler(n_max)
    bern = bernoulli_polynomials(n_max, X)
    euler = euler_polynomials(n_max, X)
    for n in range(n_max + 1):
        assert bern[n].substitute({"λ": 0}) == classical_b[n]
        assert euler[n].substitute({"λ": 0}) == classical_e[n]


def test_values_at_x_are_number_convolutions():
    n_max = 8
    bern = bernoulli_polynomials(n_max, X)
    euler = euler_polynomials(n_max, X)
    for n in range(n_max + 1):
        conv_b = sum(
            (bernoulli_deg(k) * falling_factorial(X, n - k) * comb(n, k) for k in range(n + 1)),
            ZERO,
        )
        conv_e = sum(
            (euler_deg(k) * falling_factorial(X, n - k) * comb(n, k) for k in range(n + 1)),
            ZERO,
        )
        assert bern[n] == conv_b
        assert euler[n] == conv_e


def test_higher_order_zero_is_falling_factorial():
    for n in range(6):
        assert higher_bernoulli(n, 0, X) == falling_factorial(X, n)
        assert higher_euler(n, 0, X) == falling_factorial(X, n)


def test_higher_order_one_matches_plain():
    for n in range(6):
        assert higher_bernoulli(n, 1) == bernoulli_deg(n)
        assert higher_euler(n, 1) == euler_deg(n)
    assert higher_bernoulli(2, 1) == Fraction(1, 6) - LAM ** 2 / 6
    assert higher_euler(3, 1) == Fraction(1, 4) - LAM ** 2


def test_higher_order_symbolic_first_values():
    assert higher_bernoulli(1, A) == A * (LAM - 1) / 2
    assert higher_euler(1, B) == -B / 2


def test_symbolic_order_specializes_to_integer_path():
    for n in range(6):
        symbolic = higher_bernoulli(n, A, X).substitute({"a": 2})
        assert symbolic == higher_bernoulli(n, 2, X)
        symbolic_e = higher_euler(n, B, X).substitute({"b": 3})
        assert symbolic_e == higher_euler(n, 3, X)


def test_hybrid_degenerates_to_the_pure_families():
    for n in range(5):
        assert sheffer_type(n, A, 0, X) == higher_bernoulli(n, A, X)
        assert sheffer_type(n, 0, B, X) == higher_euler(n, B, X)


def test_hybrid_first_value():
    assert sheffer_type(1, 1, 1) == LAM / 2 - 1


def test_stirling_first_triangle():
    for n in range(8):
        assert stirling_first(n, n) == 1
        if n >= 1:
            assert stirling_first(n, 0) == 0
    assert stirling_first(3, 1) == 2
    assert stirling_first(3, 2) == -3
    assert stirling_first(4, 2) == 11


def test_stirling_first_bounds():
    with pytest.raises(IndexOutOfRange):
        stirling_first(2, 3)
    with pytest.raises(IndexOutOfRange):
        stirling_first(3, -1)
    with pytest.raises(IndexOutOfRange):
        stirling_first(-1, 0)


def test_stirling_matches_log_power_series():
    n_max = 20
    log = Series([ONE, ONE] + [ZERO] * (n_max - 1)).log()
    power = Series.one(n_max)
    for k in range(n_max + 1):
        for n in range(k, n_max + 1):
            expected = power.egf_coefficient(n) / factorial(k)
            assert Poly.const(stirling_first(n, k)) == expected
        power = power * log


def test_falling_basis_round_trip():
    p = (X + Poly.var("y")) ** 3 + LAM * Poly.var("y") - 7
    coeffs = falling_basis_coefficients(p, "y")
    rebuilt = sum(
        (c * falling_factorial(Poly.var("y"), k) for k, c in enumerate(coeffs)), ZERO
    )
    assert rebuilt == p
    assert all("y" not in c.variables() for c in coeffs)


def test_falling_basis_of_plain_falling_factorial():
    coeffs = falling_basis_coefficients(falling_factorial(Poly.var("y"), 3), "y")
    assert coeffs == [ZERO, ZERO, ZERO, ONE]


def test_coefficients_up_to_n_do_not_depend_on_the_order():
    # the CLI builds every series at the order its n needs; a longer series adds nothing below n
    builders = {
        "degenerate_exp": lambda order: degenerate_exp(X, order),
        "bernoulli": lambda order: families.bernoulli_series(X, order),
        "euler": lambda order: families.euler_series(X, order),
        "higher_bernoulli": lambda order: families.higher_bernoulli_series(A, X, order),
        "higher_euler": lambda order: families.higher_euler_series(B, X, order),
        "sheffer_type": lambda order: families.sheffer_type_series(A, B, X, order),
        "uniform01": lambda order: ShefferSequence(Uniform01(), order).series(X),
        "ber:p": lambda order: ShefferSequence(Bernoulli(P), order).series(X),
        "iid:ber:1/2:2": lambda order: ShefferSequence(IidSum(Bernoulli(half), 2), order).series(X),
    }
    for name, build in builders.items():
        for n in range(5):
            minimal = build(n).egf_coefficients(n)
            assert minimal == build(n + 3).egf_coefficients(n), (name, n)


def test_family_id_covers_cli_names():
    assert {f.value for f in FamilyId} == {
        "falling-lambda",
        "deg-bernoulli",
        "deg-euler",
        "higher-bernoulli",
        "higher-euler",
        "sheffer-t",
        "stirling1",
    }
