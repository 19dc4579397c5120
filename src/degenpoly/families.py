"""Constructors for the polynomial families.

One series builder, ``sheffer_type_series``, makes every family that a
generating series defines: the degenerate Sheffer-type polynomials
T^{(a,b)}_{n,λ}(x), whose series is the Bernoulli base to the a, times the
Euler base to the b, times the degenerate exponential.  The other families
are its special cases: B^{(a)} = T^{(a,0)}, E^{(b)} = T^{(0,b)},
B = T^{(1,0)}, E = T^{(0,1)}, and the falling factorials are T^{(0,0)}.
Each family's values are the exponential coefficients of its series.

Only the two base series (``bernoulli_base``, ``euler_base``) and
``stirling_first`` are cached, behind ``functools.lru_cache`` for the life
of the process; a base is one lazy series that every caller extends as far
as it reads.  Everything else is rebuilt on each call, and the identity
checker's ``Workspace`` holds what its cases share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul

from .poly import Poly, PolyLike, ZERO, ONE, LAM, Y, as_poly
from .series import Series


class IndexOutOfRange(Exception):
    """An index pair outside the defined triangle was requested."""


def falling_factorial(base: PolyLike, n: int) -> Poly:
    """The λ-step falling factorial base·(base−λ)·(base−2λ)···(base−(n−1)λ).

    n = 0 gives 1.
    """
    if n < 0:
        raise ValueError("falling factorial needs n >= 0")
    base = as_poly(base)
    out = ONE
    for k in range(n):
        out = out * (base - LAM * k)
    return out


def degenerate_exp(base: PolyLike) -> Series:
    """The series whose exponential coefficients are the falling factorials of ``base``.

    Coefficient n is coefficient n − 1 times (base − (n−1)λ)/n.  Reduces to
    the ordinary exponential of base*t when λ is set to 0.
    """
    base = as_poly(base)
    return Series([ONE], lambda out: out[-1] * (base - LAM * (len(out) - 1)) / len(out))


@lru_cache(maxsize=None)
def bernoulli_base() -> Series:
    """t divided by (the degenerate exponential of 1, minus 1), as a series."""
    return (degenerate_exp(ONE) - Series([ONE])).div_t().reciprocal()


@lru_cache(maxsize=None)
def euler_base() -> Series:
    """2 divided by (the degenerate exponential of 1, plus 1), as a series."""
    return ((degenerate_exp(ONE) + Series([ONE])) * Fraction(1, 2)).reciprocal()


def sheffer_type_series(a_param: PolyLike, b_param: PolyLike, at: PolyLike) -> Series:
    """(B^a · E^b) · e_λ^at: the one series builder; a base whose order is 0 is left out."""
    powers = [
        base().pow(e)
        for base, e in ((bernoulli_base, a_param), (euler_base, b_param))
        if as_poly(e)
    ]
    return reduce(mul, powers + [degenerate_exp(at)])


def bernoulli_series(at: PolyLike) -> Series:
    return sheffer_type_series(1, 0, at)


def euler_series(at: PolyLike) -> Series:
    return sheffer_type_series(0, 1, at)


def bernoulli_polynomials(n_max: int, at: PolyLike = ZERO) -> list[Poly]:
    """Degenerate Bernoulli values for n = 0..n_max, from the generating series."""
    return bernoulli_series(at).egf_coefficients(n_max)


def euler_polynomials(n_max: int, at: PolyLike = ZERO) -> list[Poly]:
    return euler_series(at).egf_coefficients(n_max)


def bernoulli_deg(n: int, at: PolyLike = ZERO) -> Poly:
    return bernoulli_series(at).egf_coefficient(n)


def euler_deg(n: int, at: PolyLike = ZERO) -> Poly:
    return euler_series(at).egf_coefficient(n)


def higher_bernoulli(n: int, order_param: PolyLike, at: PolyLike = ZERO) -> Poly:
    return sheffer_type(n, order_param, 0, at)


def higher_euler(n: int, order_param: PolyLike, at: PolyLike = ZERO) -> Poly:
    return sheffer_type(n, 0, order_param, at)


def sheffer_type(n: int, a_param: PolyLike, b_param: PolyLike, at: PolyLike = ZERO) -> Poly:
    return sheffer_type_series(a_param, b_param, at).egf_coefficient(n)


# the last row of the triangle built: (m, [S1(m, 0), ..., S1(m, m)]) as ints; the pair is
# replaced whole, never changed in place, so a concurrent reader sees one complete row
_stirling_row: tuple[int, list[int]] = (0, [1])


@lru_cache(maxsize=None)
def stirling_first(n: int, k: int) -> Fraction:
    """Signed Stirling number of the first kind, from the rows of its triangle.

    Row m + 1 comes from row m by S1(m+1, j) = S1(m, j-1) - m * S1(m, j), in
    ints and without recursion.  The last row built is kept, so reading the
    rows in order costs one step per row; an earlier row starts again from 0.
    Agrees with the exponential coefficients of log(1+t)^k / k!.
    """
    global _stirling_row
    if n < 0 or k < 0 or k > n:
        raise IndexOutOfRange(f"stirling_first needs 0 <= k <= n, got ({n}, {k})")
    m, row = _stirling_row
    if m > n:
        m, row = 0, [1]
    while m < n:
        row = [0, *(row[j - 1] - m * row[j] for j in range(1, m + 1)), 1]
        m += 1
    _stirling_row = (m, row)
    return Fraction(row[k])


# -- falling-factorial basis ---------------------------------------------------


def falling_basis_coefficients(p: Poly) -> list[Poly]:
    """Coefficients c_k with p = sum_k c_k * (y)_{k,λ}.

    The c_k do not involve y; the expansion peels the leading power of y off
    the remainder, one degree at a time (each falling factorial is monic in y).
    """
    degree = p.degree("y")
    coeffs: list[Poly] = [ZERO] * (degree + 1)
    remainder = p
    for k in range(degree, -1, -1):
        c = remainder.coefficient_of("y", k)
        coeffs[k] = c
        if c:
            remainder = remainder - c * falling_factorial(Y, k)
    if remainder:
        raise AssertionError("falling-basis expansion left a nonzero remainder")
    return coeffs
