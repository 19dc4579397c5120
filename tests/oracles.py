"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the library's production code paths:
classical polynomial families come from their own recurrences, series
logarithms from the alternating-power composition formula, binomial
series from the explicit product, and polynomial ring operations from a
plain map of ``Fraction`` coefficients.  Expected values asserted in the tests
were computed with these.
"""

from fractions import Fraction
from math import comb, factorial

from degenpoly import Poly, Series, ONE, ZERO, X, A


def classical_bernoulli(n_max: int) -> list[Poly]:
    """Classical Bernoulli polynomials via B_m(x) = x^m - sum C(m+1,k) B_k(x)/(m+1)."""
    out: list[Poly] = []
    for m in range(n_max + 1):
        value = X ** m
        acc = ZERO
        for k in range(m):
            acc = acc + out[k] * comb(m + 1, k)
        out.append(value - acc / (m + 1))
    return out


def classical_euler(n_max: int) -> list[Poly]:
    """Classical Euler polynomials via E_m(x) = x^m - (1/2) sum C(m,k) E_k(x)."""
    out: list[Poly] = []
    for m in range(n_max + 1):
        acc = ZERO
        for k in range(m):
            acc = acc + out[k] * comb(m, k)
        out.append(X ** m - acc / 2)
    return out


def log_by_composition(series: Series) -> Series:
    """log F as sum_{k>=1} (-1)^(k-1) (F-1)^k / k, truncated."""
    u = series - Series.one(series.order)
    total = Series.constant(ZERO, series.order)
    power = Series.one(series.order)
    for k in range(1, series.order + 1):
        power = power * u
        total = total + power * Fraction((-1) ** (k - 1), k)
    return total


def exp_by_powers(series: Series) -> Series:
    """exp u as sum_k u^k / k!, truncated."""
    total = Series.one(series.order)
    power = Series.one(series.order)
    for k in range(1, series.order + 1):
        power = power * series
        total = total + power * Fraction(1, factorial(k))
    return total


# The Fraction-dict polynomial kernel: a term map from exponent tuples to
# nonzero Fraction coefficients, with one Fraction operation per term pair.


def terms_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(i + j for i, j in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {exps: c for exps, c in out.items() if c}


def terms_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for exps, c in b.items():
        out[exps] = out.get(exps, Fraction(0)) + c
    return {exps: c for exps, c in out.items() if c}


def terms_neg(a: dict) -> dict:
    return {exps: -c for exps, c in a.items()}


def binomial_coefficient_poly(n: int) -> Poly:
    """C(a, n) as a polynomial in a: a(a-1)...(a-n+1)/n!."""
    prod = ONE
    for k in range(n):
        prod = prod * (A - k)
    return prod / factorial(n)
