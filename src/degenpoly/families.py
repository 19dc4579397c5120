"""Constructors for the polynomial families, and the ``Workspace`` that builds them.

One recipe, ``Workspace.hybrid``, makes every family that a generating
series defines: the degenerate Sheffer-type polynomials T^{(a,b)}_{n,λ}(x),
whose series is the Bernoulli base to the a, times the Euler base to the b,
times the degenerate exponential.  The other families are its special
cases: B^{(a)} = T^{(a,0)}, E^{(b)} = T^{(0,b)}, B = T^{(1,0)}, E = T^{(0,1)},
and the falling factorials are T^{(0,0)}.  A Workspace hands out the
series themselves, and each family's values are their exponential
coefficients, read as far as a caller needs.  The library calls
(``bernoulli_deg``, ``sheffer_type``, ...) and the CLI's ``table`` each read a
fresh Workspace, and the identity checker shares one over a run, so the
values printed are the values proved.  A Workspace also averages over a
random variable Y, through the ordinary moments E[Y^j] (``expect``).

Only the two base series (``bernoulli_base``, ``euler_base``) and
``stirling_first`` are cached for the life of the process, behind
``functools.lru_cache``; a base is one lazy series that every caller extends
as far as it reads.  A Workspace holds everything else for its own life.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul
from typing import TYPE_CHECKING

from .poly import Poly, PolyLike, ZERO, ONE, LAM, Y, as_poly
from .series import Series

if TYPE_CHECKING:  # randvar imports this module
    from .randvar import MomentProvider


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


class Workspace:
    """Cache of what the family recipes share, for its own life.

    It owns the series, the B^e1 · E^e2 factors, one moment series per
    provider, and the ordinary moments E[Y^j] read off it.  The series are
    lazy, so each reader extends them as far as it reads.
    """

    def __init__(self):
        self._cache: dict = {}

    def _get(self, key, make):
        value = self._cache.get(key)
        if value is None:
            value = make()
            self._cache[key] = value
        return value

    def exp_of(self, base: Poly) -> Series:
        return self._get(("exp", base), lambda: degenerate_exp(base))

    def power(self, base: Series, e: Poly) -> Series:
        """A base series raised to a (possibly symbolic) order, formed once."""
        return self._get(("pow", base, e), lambda: base.pow(e))

    def hybrid(self, e1, e2, at: Poly) -> Series:
        """T^{(e1,e2)} at ``at``: the series (B^e1 · E^e2) · e_λ^at, a base of order 0 left out.

        This is the one family recipe: the five below are calls to it.  The
        factor B^e1 · E^e2 is formed once per order pair.
        """
        e1, e2 = as_poly(e1), as_poly(e2)

        def factor():
            powers = [
                self.power(base(), e)
                for base, e in ((bernoulli_base, e1), (euler_base, e2))
                if e
            ]
            return reduce(mul, powers)

        def make():
            series = self.exp_of(at)
            if e1 or e2:
                series = self._get(("factor", e1, e2), factor) * series
            return series

        return self._get(("hybrid", e1, e2, at), make)

    def falling(self, base: Poly) -> Series:
        return self.hybrid(ZERO, ZERO, base)

    def higher_bernoulli(self, e, at: Poly) -> Series:
        return self.hybrid(e, ZERO, at)

    def higher_euler(self, e, at: Poly) -> Series:
        return self.hybrid(ZERO, e, at)

    def bernoulli(self, at: Poly) -> Series:
        return self.hybrid(ONE, ZERO, at)

    def euler(self, at: Poly) -> Series:
        return self.hybrid(ZERO, ONE, at)

    def mgf(self, provider: MomentProvider) -> Series:
        """The provider's moment series, built once; an i.i.d. sum raises its base's series."""
        from .randvar import IidSum  # randvar imports this module

        def make():
            if isinstance(provider, IidSum):
                return self.mgf(provider.base).pow_int(provider.m)
            return provider.mgf()

        return self._get(("mgf", provider), make)

    def expect(self, p: Poly, provider: MomentProvider) -> Poly:
        """E[p(Y)]: the dot of [y^j]p with E[Y^j], extended through p's y-degree.

        E[Y^d] ends the anti-diagonal E[Y^j (Y)_{d−j,λ}], j = 0..d, which starts at
        moment d of the moment series; a step uses y·(y)_{k,λ} = (y)_{k+1,λ} + kλ·(y)_{k,λ}
        and the anti-diagonal before it, the one kept.
        """
        degree = p.degree("y")
        moments, diagonal = self._get(("ordinary-moments", provider), lambda: ([], []))
        series = self.mgf(provider)
        for d in range(len(moments), degree + 1):
            row = [series.egf_coefficient(d)]
            for j, below in enumerate(diagonal):  # below = E[Y^j (Y)_{d−1−j,λ}]
                row.append(row[j] + below * (LAM * (d - 1 - j)))
            moments.append(row[-1])
            diagonal[:] = row
        return Poly.dot((1, p.coefficient_of("y", j), moments[j]) for j in range(degree + 1))

    def sheffer(self, provider: MomentProvider, at: Poly) -> Series:
        """The provider's Sheffer series at ``at``: e_λ^at(t) over the moment series."""

        def make():
            inverse = self._get(("inverse-mgf", provider), lambda: self.mgf(provider).reciprocal())
            return inverse * self.exp_of(at)

        return self._get(("sheffer", provider, at), make)


# -- the library calls: each reads a fresh Workspace ------------------------------


def bernoulli_polynomials(n_max: int, at: PolyLike = ZERO) -> list[Poly]:
    """Degenerate Bernoulli values for n = 0..n_max (none when n_max < 0)."""
    return Workspace().bernoulli(at).egf_coefficients(n_max)


def euler_polynomials(n_max: int, at: PolyLike = ZERO) -> list[Poly]:
    return Workspace().euler(at).egf_coefficients(n_max)


def bernoulli_deg(n: int, at: PolyLike = ZERO) -> Poly:
    return sheffer_type(n, 1, 0, at)


def euler_deg(n: int, at: PolyLike = ZERO) -> Poly:
    return sheffer_type(n, 0, 1, at)


def higher_bernoulli(n: int, order_param: PolyLike, at: PolyLike = ZERO) -> Poly:
    return sheffer_type(n, order_param, 0, at)


def higher_euler(n: int, order_param: PolyLike, at: PolyLike = ZERO) -> Poly:
    return sheffer_type(n, 0, order_param, at)


def sheffer_type(n: int, a_param: PolyLike, b_param: PolyLike, at: PolyLike = ZERO) -> Poly:
    """T^{(a,b)}_{n,λ}(at); a negative n is no coefficient of the series."""
    return Workspace().hybrid(a_param, b_param, at).egf_coefficient(n)


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
