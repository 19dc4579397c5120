"""Truncated formal power series in t with polynomial coefficients.

Coefficients are stored in ordinary form: ``coefficient(n)`` is the literal
coefficient of t^n.  The exponential-generating-function convention (divide
by n!) is confined to ``from_egf`` and ``egf_coefficient``, so the Cauchy
product stays a plain convolution.

Arithmetic between series of different truncation orders keeps the smaller
order; the result records how far its coefficients are trustworthy.
All values are immutable and all operations pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Iterable

from .poly import Poly, PolyLike, ZERO, ONE, as_poly, int_power


class OrderExceeded(Exception):
    """A coefficient beyond the truncation order was requested."""


class NonUnitConstantTerm(Exception):
    """The constant term must be an invertible rational (or exactly 1)."""


class NonzeroConstantTerm(Exception):
    """The constant term must be zero for this operation."""


class Series:
    """A power series known through order ``order`` (coefficients of t^0..t^order)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[PolyLike]):
        polys = tuple(as_poly(c) for c in coeffs)
        if not polys:
            raise ValueError("a series needs at least the constant coefficient")
        self._coeffs = polys

    @classmethod
    def constant(cls, value: PolyLike, order: int) -> "Series":
        return cls([as_poly(value)] + [ZERO] * order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls.constant(ONE, order)

    @classmethod
    def from_egf(cls, term: Callable[[int], PolyLike], order: int) -> "Series":
        """Build from exponential-form terms: ordinary coefficient n = term(n)/n!."""
        return cls(as_poly(term(n)) / factorial(n) for n in range(order + 1))

    # -- access ---------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, n: int) -> Poly:
        if n < 0 or n > self.order:
            raise OrderExceeded(f"coefficient {n} of a series truncated at order {self.order}")
        return self._coeffs[n]

    def egf_coefficient(self, n: int) -> Poly:
        """n! times the ordinary coefficient of t^n."""
        return self.coefficient(n) * factorial(n)

    def egf_coefficients(self, n_max: int) -> list[Poly]:
        """The exponential coefficients for n = 0..n_max: a family's values."""
        return [self.egf_coefficient(n) for n in range(n_max + 1)]

    # -- ring operations --------------------------------------------------------

    def __add__(self, other) -> "Series":
        if isinstance(other, Series):
            n = min(self.order, other.order)
            return Series(a + b for a, b in zip(self._coeffs[: n + 1], other._coeffs[: n + 1]))
        return NotImplemented

    def __sub__(self, other) -> "Series":
        if isinstance(other, Series):
            n = min(self.order, other.order)
            return Series(a - b for a, b in zip(self._coeffs[: n + 1], other._coeffs[: n + 1]))
        return NotImplemented

    def __neg__(self) -> "Series":
        return Series(-c for c in self._coeffs)

    def __mul__(self, other) -> "Series":
        if isinstance(other, Series):
            f, g = self._coeffs, other._coeffs
            return Series(
                Poly.dot((1, f[i], g[k - i]) for i in range(k + 1) if f[i] and g[k - i])
                for k in range(min(self.order, other.order) + 1)
            )
        if isinstance(other, (int, Fraction, Poly)):
            scalar = as_poly(other)
            return Series(c * scalar for c in self._coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self._coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"Series[order {self.order}]({inner}{tail})"

    # -- multiplicative structure -------------------------------------------------

    def reciprocal(self) -> "Series":
        """Series G with self*G = 1 up to the truncation order.

        The constant term must be a nonzero rational.
        """
        c0 = self._coeffs[0]
        if not c0.is_constant() or not c0:
            raise NonUnitConstantTerm(f"constant term {c0} is not an invertible rational")
        inv0 = Fraction(1) / c0.constant_value()
        f = self._coeffs
        out = [Poly.const(inv0)]
        for n in range(1, self.order + 1):
            out.append(Poly.dot((1, f[k], out[n - k]) for k in range(1, n + 1) if f[k]) * (-inv0))
        return Series(out)

    def log(self) -> "Series":
        """Logarithm of a series with constant term exactly 1.

        Uses the coefficient recurrence from L'·F = F', so no composition
        or convergence questions arise.
        """
        if self._coeffs[0] != ONE:
            raise NonUnitConstantTerm(f"log needs constant term 1, got {self._coeffs[0]}")
        f = self._coeffs
        out = [ZERO]
        for n in range(1, self.order + 1):
            acc = Poly.dot((k, out[k], f[n - k]) for k in range(1, n) if out[k] and f[n - k])
            out.append(f[n] - acc / n)
        return Series(out)

    def exp(self) -> "Series":
        """Exponential of a series with zero constant term."""
        if self._coeffs[0]:
            raise NonzeroConstantTerm(f"exp needs constant term 0, got {self._coeffs[0]}")
        u = self._coeffs
        out = [ONE]
        for n in range(1, self.order + 1):
            acc = Poly.dot((k, u[k], out[n - k]) for k in range(1, n + 1) if u[k] and out[n - k])
            out.append(acc / n)
        return Series(out)

    def pow(self, exponent: PolyLike) -> "Series":
        """Symbolic power exp(exponent * log(self)); the base needs constant term 1.

        The exponent may be a polynomial (e.g. a bare order variable), so a
        single verified identity covers every real value of the order.  The
        exponent 1 gives the base itself, once its constant term is checked.
        """
        exponent = as_poly(exponent)
        if exponent == ONE and self._coeffs[0] == ONE:
            return self
        return (self.log() * exponent).exp()

    def pow_int(self, exponent: int) -> "Series":
        """Non-negative integer power by square-and-multiply."""
        return int_power(self, exponent, Series.one(self.order))

    # -- reindexing ------------------------------------------------------------

    def scale_t(self, c: PolyLike) -> "Series":
        """Substitute t -> c*t: coefficient n picks up a factor c^n."""
        scalar = as_poly(c)
        out = []
        power = ONE
        for n, coeff in enumerate(self._coeffs):
            out.append(coeff * power if n else coeff)
            power = power * scalar
        return Series(out)

    def div_t(self) -> "Series":
        """Divide by t; requires zero constant term and drops one order."""
        if self._coeffs[0]:
            raise NonzeroConstantTerm(f"cannot divide by t: constant term {self._coeffs[0]}")
        if self.order < 1:
            raise OrderExceeded("dividing by t needs at least order 1")
        return Series(self._coeffs[1:])

    def map_coefficients(self, fn: Callable[[Poly], PolyLike]) -> "Series":
        """Apply a function to every coefficient (e.g. a variable substitution)."""
        return Series(fn(c) for c in self._coeffs)
