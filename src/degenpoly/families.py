"""Constructors for the polynomial families.

Every family is produced by extracting exponential coefficients from its
generating series.  Only the two base series (``bernoulli_base``,
``euler_base``) and ``stirling_first`` are cached, behind
``functools.lru_cache`` for the life of the process; everything else is
rebuilt on each call, and the identity checker's ``Workspace`` holds what
its cases share.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .poly import Poly, PolyLike, ZERO, ONE, LAM, as_poly
from .series import Series


class IndexOutOfRange(Exception):
    """An index pair outside the defined triangle was requested."""


class FamilyId(enum.Enum):
    """Stable names for the constructible families (the CLI dispatch table)."""

    FALLING_LAMBDA = "falling-lambda"
    DEG_BERNOULLI = "deg-bernoulli"
    DEG_EULER = "deg-euler"
    HIGHER_BERNOULLI = "higher-bernoulli"
    HIGHER_EULER = "higher-euler"
    SHEFFER_T = "sheffer-t"
    STIRLING1 = "stirling1"


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


def degenerate_exp(base: PolyLike, order: int) -> Series:
    """The series whose exponential coefficients are the falling factorials of ``base``.

    Reduces to the ordinary exponential of base*t when λ is set to 0.
    """
    base = as_poly(base)
    terms = [ONE]
    for n in range(1, order + 1):
        terms.append(terms[-1] * (base - LAM * (n - 1)))
    return Series(t / factorial(n) for n, t in enumerate(terms))


@lru_cache(maxsize=None)
def bernoulli_base(order: int) -> Series:
    """t divided by (the degenerate exponential of 1, minus 1), as a series."""
    e1 = degenerate_exp(ONE, order + 1)
    return (e1 - Series.one(order + 1)).div_t().reciprocal()


@lru_cache(maxsize=None)
def euler_base(order: int) -> Series:
    """2 divided by (the degenerate exponential of 1, plus 1), as a series."""
    e1 = degenerate_exp(ONE, order)
    return ((e1 + Series.one(order)) * Fraction(1, 2)).reciprocal()


def bernoulli_series(at: PolyLike, order: int) -> Series:
    return bernoulli_base(order) * degenerate_exp(at, order)


def euler_series(at: PolyLike, order: int) -> Series:
    return euler_base(order) * degenerate_exp(at, order)


def higher_bernoulli_series(order_param: PolyLike, at: PolyLike, order: int) -> Series:
    return bernoulli_base(order).pow(order_param) * degenerate_exp(at, order)


def higher_euler_series(order_param: PolyLike, at: PolyLike, order: int) -> Series:
    return euler_base(order).pow(order_param) * degenerate_exp(at, order)


def sheffer_type_series(a_param: PolyLike, b_param: PolyLike, at: PolyLike, order: int) -> Series:
    """Product of a Bernoulli-type power, an Euler-type power and an exponential."""
    return (
        bernoulli_base(order).pow(a_param)
        * euler_base(order).pow(b_param)
        * degenerate_exp(at, order)
    )


def bernoulli_polynomials(n_max: int, at: PolyLike = ZERO) -> list[Poly]:
    """Degenerate Bernoulli values for n = 0..n_max, from the generating series."""
    return bernoulli_series(at, n_max).egf_coefficients(n_max)


def euler_polynomials(n_max: int, at: PolyLike = ZERO) -> list[Poly]:
    return euler_series(at, n_max).egf_coefficients(n_max)


def bernoulli_deg(n: int, at: PolyLike = ZERO) -> Poly:
    return bernoulli_series(at, n).egf_coefficient(n)


def euler_deg(n: int, at: PolyLike = ZERO) -> Poly:
    return euler_series(at, n).egf_coefficient(n)


def higher_bernoulli(n: int, order_param: PolyLike, at: PolyLike = ZERO) -> Poly:
    return higher_bernoulli_series(order_param, at, n).egf_coefficient(n)


def higher_euler(n: int, order_param: PolyLike, at: PolyLike = ZERO) -> Poly:
    return higher_euler_series(order_param, at, n).egf_coefficient(n)


def sheffer_type(n: int, a_param: PolyLike, b_param: PolyLike, at: PolyLike = ZERO) -> Poly:
    return sheffer_type_series(a_param, b_param, at, n).egf_coefficient(n)


@lru_cache(maxsize=None)
def stirling_first(n: int, k: int) -> Fraction:
    """Signed Stirling number of the first kind via the triangular recurrence.

    Agrees with the exponential coefficients of log(1+t)^k / k!.
    """
    if n < 0 or k < 0 or k > n:
        raise IndexOutOfRange(f"stirling_first needs 0 <= k <= n, got ({n}, {k})")
    if n == 0:
        return Fraction(1)
    if k == 0:
        return Fraction(0)
    # S1(n, k) = S1(n-1, k-1) - (n-1) * S1(n-1, k)
    value = stirling_first(n - 1, k - 1)
    if k <= n - 1:
        value = value - (n - 1) * stirling_first(n - 1, k)
    return value


# -- falling-factorial basis ---------------------------------------------------


def falling_basis_coefficients(p: Poly, var: str = "y") -> list[Poly]:
    """Coefficients c_k with p = sum_k c_k * (var)_{k,λ}.

    The c_k do not involve ``var``; the expansion peels the leading power
    of ``var`` off the remainder, one degree at a time (each falling
    factorial is monic in ``var``).
    """
    base = Poly.var(var)
    degree = p.degree(var)
    coeffs: list[Poly] = [ZERO] * (degree + 1)
    remainder = p
    for k in range(degree, -1, -1):
        c = remainder.coefficient_of(var, k)
        coeffs[k] = c
        if c:
            remainder = remainder - c * falling_factorial(base, k)
    if remainder:
        raise AssertionError("falling-basis expansion left a nonzero remainder")
    return coeffs
