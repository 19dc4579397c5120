from fractions import Fraction
from math import comb, factorial

import pytest

from degenpoly import (
    IndexOutOfRange,
    OrderExceeded,
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
from degenpoly import cli, families
from degenpoly.families import degenerate_exp

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
    assert degenerate_exp(ZERO).egf_coefficients(5) == Series([ONE]).egf_coefficients(5)
    assert degenerate_exp(ONE).coefficient(2) == (ONE - LAM) / 2


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


_LIBRARY_CALLS = {
    "bernoulli_polynomials": lambda n: bernoulli_polynomials(n, X),
    "euler_polynomials": lambda n: euler_polynomials(n, X),
    "bernoulli_deg": lambda n: bernoulli_deg(n, X),
    "euler_deg": lambda n: euler_deg(n),
    "higher_bernoulli": lambda n: higher_bernoulli(n, A, X),
    "higher_euler": lambda n: higher_euler(n, 1),
    "sheffer_type": lambda n: sheffer_type(n, A, B, X),
}


@pytest.mark.parametrize("n", [-1, -2])
@pytest.mark.parametrize("name", _LIBRARY_CALLS)
def test_a_negative_n_reads_no_value(name, n):
    # a value list stops before index 0; a single value is no coefficient of the series
    call = _LIBRARY_CALLS[name]
    if name.endswith("_polynomials"):
        assert call(n) == []
    else:
        with pytest.raises(OrderExceeded, match=f"no coefficient {n}"):
            call(n)


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


def test_stirling_first_reads_a_deep_row_cold():
    # the rows are built in order without recursion, so a cold deep read needs no warm-up
    stirling_first.cache_clear()
    assert stirling_first(600, 1) == -factorial(599)
    assert sum(abs(stirling_first(600, k)) for k in range(601)) == factorial(600)
    stirling_first.cache_clear()
    cold = stirling_first(600, 300)
    stirling_first.cache_clear()
    in_order = [stirling_first(n, k) for n in range(601) for k in range(min(n, 300) + 1)]
    assert in_order[-1] == cold


def test_stirling_matches_log_power_series():
    n_max = 20
    log = Series([ONE, ONE]).log()
    power = Series([ONE])
    for k in range(n_max + 1):
        for n in range(k, n_max + 1):
            expected = power.egf_coefficient(n) / factorial(k)
            assert Poly.const(stirling_first(n, k)) == expected
        power = power * log


def test_falling_basis_round_trip():
    p = (X + Poly.var("y")) ** 3 + LAM * Poly.var("y") - 7
    coeffs = falling_basis_coefficients(p)
    rebuilt = sum(
        (c * falling_factorial(Poly.var("y"), k) for k, c in enumerate(coeffs)), ZERO
    )
    assert rebuilt == p
    assert all("y" not in c.variables() for c in coeffs)


def test_falling_basis_of_plain_falling_factorial():
    coeffs = falling_basis_coefficients(falling_factorial(Poly.var("y"), 3))
    assert coeffs == [ZERO, ZERO, ZERO, ONE]


_LAZY_BUILDERS = {
    "degenerate_exp": lambda: degenerate_exp(X),
    "bernoulli": lambda: families.bernoulli_base() * degenerate_exp(X),
    "euler": lambda: families.euler_base() * degenerate_exp(X),
    "higher_bernoulli": lambda: families.bernoulli_base().pow(A) * degenerate_exp(X),
    "higher_euler": lambda: families.euler_base().pow(B) * degenerate_exp(X),
    "sheffer_type": lambda: (families.bernoulli_base().pow(A) * families.euler_base().pow(B)
                             * degenerate_exp(X)),
    "uniform01": lambda: ShefferSequence(Uniform01()).series(X),
    "ber:p": lambda: ShefferSequence(Bernoulli(P)).series(X),
    "iid:ber:1/2:2": lambda: ShefferSequence(IidSum(Bernoulli(half), 2)).series(X),
}


def _clear_base_caches():
    for name in ("bernoulli_base", "euler_base"):
        getattr(families, name).cache_clear()


def test_coefficients_up_to_n_do_not_depend_on_the_order():
    # a series extends as it is read: reading n_max first, or one index at a time, or
    # reading a shared base further first, gives the same values below n
    n_max = 6
    for name, build in _LAZY_BUILDERS.items():
        _clear_base_caches()
        deepest_first = build()
        deepest_first.coefficient(n_max)
        expected = deepest_first.egf_coefficients(n_max)
        _clear_base_caches()
        ascending = build()
        assert [ascending.egf_coefficient(n) for n in range(n_max + 1)] == expected, name
        for n in range(5):
            assert build().egf_coefficients(n) == expected[:n + 1], (name, n)


def test_a_second_read_makes_no_product(monkeypatch):
    n_max = 6
    built = {name: build() for name, build in _LAZY_BUILDERS.items()}
    first = {name: series.egf_coefficients(n_max) for name, series in built.items()}
    calls = []
    dot = Poly.dot.__func__

    def spy(cls, triples):
        calls.append(1)
        return dot(cls, triples)

    monkeypatch.setattr(Poly, "dot", classmethod(spy))
    assert {name: series.egf_coefficients(n_max) for name, series in built.items()} == first
    assert calls == []


def test_family_id_covers_cli_names():
    # the `table` choices, in the order `degenpoly table --help` lists them
    assert cli._FAMILY_NAMES == [
        "falling-lambda",
        "deg-bernoulli",
        "deg-euler",
        "higher-bernoulli",
        "higher-euler",
        "sheffer-t",
        "stirling1",
        "sheffer-y",
    ]
