"""Formal power series in t with polynomial coefficients, extended on demand.

A series is the list of coefficients computed so far and a rule that makes
the next coefficient from the earlier ones; reading coefficient n extends
the list through n, once (the lazy power series of Knuth, TAOCP Vol. 2,
§4.7).  Every operation returns such a series, and its rule reads its
inputs only up to the index it makes (``div_t`` one further), so no caller
chooses a truncation order.  A series built from a finite list continues
with zeros.

Reads mutate a series, and the family bases are shared by every caller in
the process, so one re-entrant module lock is held while a list is
extended.  The constant-term checks are made when an operation is called.
Every integer power, the reciprocal and an integer order passed to ``pow``
included, is one rule: ``pow_int``, Miller's recurrence.  Only a symbolic or
non-integer order is exp(e·log), ``pow``.

Coefficients are stored in ordinary form: ``coefficient(n)`` is the literal
coefficient of t^n.  The exponential-generating-function convention (divide
by n!) is confined to ``from_egf`` and ``egf_coefficient``, so the Cauchy
product stays a plain convolution.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import factorial
from typing import Callable, Iterable

from .poly import Poly, PolyLike, ZERO, ONE, as_poly

# held while any series extends its list; a rule reads its inputs with it held
_LOCK = threading.RLock()


class OrderExceeded(Exception):
    """A coefficient was requested at a negative index or past the end of a finite table."""


class NonUnitConstantTerm(Exception):
    """The constant term must be an invertible rational (or exactly 1)."""


class NonzeroConstantTerm(Exception):
    """The constant term must be zero for this operation."""


class Series:
    """The coefficients computed so far, and ``rule(out)``: coefficient len(out) from them."""

    __slots__ = ("_coeffs", "_rule")

    def __init__(self, coeffs: Iterable[PolyLike] = (),
                 rule: Callable[[list[Poly]], Poly] = lambda out: ZERO):
        self._coeffs = [as_poly(c) for c in coeffs]
        self._rule = rule

    @classmethod
    def from_egf(cls, term: Callable[[int], PolyLike]) -> "Series":
        """Build from exponential-form terms: ordinary coefficient n = term(n)/n!."""
        return cls((), lambda out: as_poly(term(len(out))) / factorial(len(out)))

    # -- access ---------------------------------------------------------------

    def _upto(self, n: int) -> list[Poly]:
        """The coefficient list, extended through index n; it is only ever appended to."""
        coeffs = self._coeffs
        if len(coeffs) <= n:
            with _LOCK:
                while len(coeffs) <= n:
                    coeffs.append(self._rule(coeffs))
        return coeffs

    def coefficient(self, n: int) -> Poly:
        if n < 0:
            raise OrderExceeded(f"a series has no coefficient {n}")
        return self._upto(n)[n]

    def egf_coefficient(self, n: int) -> Poly:
        """n! times the ordinary coefficient of t^n."""
        return self.coefficient(n) * factorial(n)

    def egf_coefficients(self, n_max: int) -> list[Poly]:
        """The exponential coefficients for n = 0..n_max: a family's values."""
        return [self.egf_coefficient(n) for n in range(n_max + 1)]

    # -- ring operations --------------------------------------------------------

    def __add__(self, other) -> "Series":
        if isinstance(other, Series):
            return Series((), lambda out: self.coefficient(len(out)) + other.coefficient(len(out)))
        return NotImplemented

    def __sub__(self, other) -> "Series":
        if isinstance(other, Series):
            return Series((), lambda out: self.coefficient(len(out)) - other.coefficient(len(out)))
        return NotImplemented

    def __mul__(self, other) -> "Series":
        if isinstance(other, Series):
            def rule(out):
                k = len(out)
                f, g = self._upto(k), other._upto(k)
                return Poly.dot((1, f[i], g[k - i]) for i in range(k + 1) if f[i] and g[k - i])

            return Series((), rule)
        if isinstance(other, (int, Fraction, Poly)):
            scalar = as_poly(other)
            return self.map_coefficients(lambda c: c * scalar)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        shown = self._coeffs[:6]
        tail = ", ..." if len(self._coeffs) > 6 else ""
        return f"Series({', '.join(str(c) for c in shown)}{tail}; {len(self._coeffs)} computed)"

    # -- multiplicative structure -------------------------------------------------

    def reciprocal(self) -> "Series":
        """Series G with self*G = 1, the power −1; the constant term is a nonzero rational."""
        return self.pow_int(-1)

    def log(self) -> "Series":
        """Logarithm of a series with constant term exactly 1.

        Uses the coefficient recurrence from L'·F = F', so no composition
        or convergence questions arise.
        """
        if self.coefficient(0) != ONE:
            raise NonUnitConstantTerm(f"log needs constant term 1, got {self.coefficient(0)}")

        def rule(out):
            n = len(out)
            f = self._upto(n)
            acc = Poly.dot((k, out[k], f[n - k]) for k in range(1, n) if out[k] and f[n - k])
            return f[n] - acc / n

        return Series([ZERO], rule)

    def exp(self) -> "Series":
        """Exponential of a series with zero constant term."""
        if self.coefficient(0):
            raise NonzeroConstantTerm(f"exp needs constant term 0, got {self.coefficient(0)}")

        def rule(out):
            n = len(out)
            u = self._upto(n)
            acc = Poly.dot((k, u[k], out[n - k]) for k in range(1, n + 1) if u[k] and out[n - k])
            return acc / n

        return Series([ONE], rule)

    def pow(self, exponent: PolyLike) -> "Series":
        """Power of a series with constant term exactly 1, to a (possibly symbolic) order.

        The exponent may be a polynomial (e.g. a bare order variable), so a
        single verified identity covers every real value of the order; such
        an order is exp(exponent * log(self)).  An integer order is ``pow_int``.
        """
        exponent = as_poly(exponent)
        if self.coefficient(0) != ONE:
            raise NonUnitConstantTerm(f"pow needs constant term 1, got {self.coefficient(0)}")
        if exponent.is_constant() and exponent.constant_value().denominator == 1:
            return self.pow_int(int(exponent.constant_value()))
        return (self.log() * exponent).exp()

    def pow_int(self, exponent: int) -> "Series":
        """Integer power, negative included, by J. C. P. Miller's recurrence (TAOCP Vol. 2, §4.7).

        The constant term c must be a nonzero rational.  G = F^m has F·G' = m·F'·G, so g_0 = c^m
        and n·c·g_n = Σ_{k=1..n} ((m+1)k − n)·f_k·g_{n−k}: one integer-weighted product sum per
        coefficient, a fixed recursion depth for any m, and the series itself for m = 1.
        """
        if not isinstance(exponent, int):
            raise ValueError(f"pow_int needs an integer exponent, got {exponent!r}")
        c0 = self.coefficient(0)
        if not c0.is_constant() or not c0:
            raise NonUnitConstantTerm(f"constant term {c0} is not an invertible rational")
        if exponent == 1:
            return self
        c = c0.constant_value()

        def rule(out):
            n = len(out)
            f = self._upto(n)
            terms = (((exponent + 1) * k - n, f[k], out[n - k]) for k in range(1, n + 1) if f[k])
            return Poly.dot(terms) / (n * c)

        return Series([Poly.const(c ** exponent)], rule)

    # -- reindexing ------------------------------------------------------------

    def scale_t(self, c: PolyLike) -> "Series":
        """Substitute t -> c*t: coefficient n picks up a factor c^n."""
        scalar = as_poly(c)
        powers = Series([ONE], lambda out: out[-1] * scalar)
        return Series((), lambda out: self.coefficient(len(out)) * powers.coefficient(len(out)))

    def div_t(self) -> "Series":
        """Divide by t; requires zero constant term."""
        if self.coefficient(0):
            raise NonzeroConstantTerm(f"cannot divide by t: constant term {self.coefficient(0)}")
        return Series((), lambda out: self.coefficient(len(out) + 1))

    def map_coefficients(self, fn: Callable[[Poly], PolyLike]) -> "Series":
        """Apply a function to every coefficient (e.g. a variable substitution)."""
        return Series((), lambda out: as_poly(fn(self.coefficient(len(out)))))
