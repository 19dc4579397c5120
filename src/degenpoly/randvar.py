"""Exact moment sequences for random variables and the polynomial families they induce.

A random variable enters only through its exact degenerate moment sequence
E[(Y)_{n,λ}], which is enough to build E[e_λ^Y(t)] as a formal series and
to apply the expectation functional to any polynomial in Y.  Sampling is a
separate, optional capability used solely by the Monte-Carlo cross-check;
the exact layer never touches floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .poly import Poly, PolyLike, ZERO, ONE, as_poly
from .series import OrderExceeded, Series
from .families import (
    degenerate_exp,
    falling_basis_coefficients,
    falling_factorial,
)


class UnsamplableProvider(Exception):
    """The provider has no sampling rule (exact moments only)."""


@dataclass(frozen=True)
class MomentProvider:
    """Base for exact moment sequences; subclasses implement ``moment``.

    ``moment(0)`` is 1 for every provider, so the moment series always has
    an invertible constant term.
    """

    def moment(self, n: int) -> Poly:
        raise NotImplementedError

    def mgf(self, order: int) -> Series:
        """The moment series: exponential coefficient n is moment(n)."""
        return Series.from_egf(self.moment, order)

    def sample_array(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise UnsamplableProvider(f"{self.label()} cannot be sampled")

    def label(self) -> str:
        return type(self).__name__.lower()


@dataclass(frozen=True)
class Uniform01(MomentProvider):
    """Uniform on [0, 1]: moments by exact termwise integration."""

    def moment(self, n: int) -> Poly:
        return self.mgf(n).egf_coefficient(n)

    def mgf(self, order: int) -> Series:
        # coefficient n of e_λ^y(t) is (y)_{n,λ}/n!, and its integral over [0, 1] is moment(n)/n!
        return degenerate_exp(Poly.var("y"), order).map_coefficients(_integrate_unit_interval)

    def sample_array(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.random(size)

    def label(self) -> str:
        return "uniform01"


def _integrate_unit_interval(p: Poly) -> Poly:
    """The integral of p over y in [0, 1]: y^k contributes 1/(k+1)."""
    slices = (p.coefficient_of("y", k) for k in range(p.degree("y") + 1))
    return Poly.sum(c / (k + 1) for k, c in enumerate(slices) if c)


@dataclass(frozen=True)
class Bernoulli(MomentProvider):
    """Bernoulli with success probability p (a rational or the symbolic p)."""

    p: Poly

    def __init__(self, p: PolyLike):
        object.__setattr__(self, "p", as_poly(p))

    def moment(self, n: int) -> Poly:
        if n == 0:
            return ONE
        return self.p * falling_factorial(ONE, n)

    def sample_array(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if not self.p.is_constant():
            raise UnsamplableProvider("Bernoulli with a symbolic probability cannot be sampled")
        pv = self.p.constant_value()
        if pv < 0 or pv > 1:
            raise UnsamplableProvider(f"Bernoulli probability {pv} is outside [0, 1]")
        return (rng.random(size) < float(pv)).astype(np.float64)

    def label(self) -> str:
        return f"ber({self.p})"


@dataclass(frozen=True)
class IidSum(MomentProvider):
    """Sum of m independent copies of a base provider."""

    base: MomentProvider
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("IidSum needs at least one copy")

    def moment(self, n: int) -> Poly:
        return self.mgf(n).egf_coefficient(n)

    def mgf(self, order: int) -> Series:
        # independence: the moment series of the sum is the m-th power
        return self.base.mgf(order).pow_int(self.m)

    def sample_array(self, rng: np.random.Generator, size: int) -> np.ndarray:
        total = self.base.sample_array(rng, size)
        for _ in range(self.m - 1):
            total += self.base.sample_array(rng, size)
        return total

    def label(self) -> str:
        return f"iid({self.base.label()},{self.m})"


@dataclass(frozen=True)
class Zero(MomentProvider):
    """The random variable that is identically zero (no sampling rule)."""

    def moment(self, n: int) -> Poly:
        return ONE if n == 0 else ZERO

    def label(self) -> str:
        return "zero"


@dataclass(frozen=True)
class CustomMoments(MomentProvider):
    """An explicit finite moment table; moment(n) is defined for n < len(table)."""

    table: tuple[Poly, ...]

    def __init__(self, table: Sequence[PolyLike]):
        object.__setattr__(self, "table", tuple(as_poly(t) for t in table))
        if not self.table or self.table[0] != ONE:
            raise ValueError("a moment table must start with moment(0) = 1")

    def moment(self, n: int) -> Poly:
        if n >= len(self.table):
            raise OrderExceeded(f"moment {n} beyond the table of length {len(self.table)}")
        return self.table[n]

    def label(self) -> str:
        return f"custom[{len(self.table)}]"


def independent_sum_moments(first: MomentProvider, second: MomentProvider, n_max: int) -> CustomMoments:
    """Moment table of the sum of two independent variables: their moment series multiply."""
    return CustomMoments((first.mgf(n_max) * second.mgf(n_max)).egf_coefficients(n_max))


# -- the induced polynomial family ------------------------------------------------


class ShefferSequence:
    """Polynomials whose generating series is the degenerate exponential of x
    divided by the provider's moment series."""

    def __init__(self, provider: MomentProvider, order: int):
        self.provider = provider
        self.order = order
        self.inverse_mgf = provider.mgf(order).reciprocal()

    def series(self, at: PolyLike) -> Series:
        return self.inverse_mgf * degenerate_exp(at, self.order)

    def polynomial(self, n: int, at: PolyLike) -> Poly:
        if n > self.order:
            raise OrderExceeded(f"index {n} beyond the configured order {self.order}")
        return self.series(at).egf_coefficient(n)

    def polynomials(self, n_max: int, at: PolyLike) -> list[Poly]:
        return self.series(at).egf_coefficients(n_max)


# -- the expectation functional ---------------------------------------------------


def expect_falling_basis(coeffs: Sequence[PolyLike], provider: MomentProvider) -> Poly:
    """Apply E to sum_k coeffs[k] * (Y)_{k,λ}: linearity gives sum coeffs[k]*moment(k)."""
    coeffs = (as_poly(c) for c in coeffs)
    return Poly.sum(c * provider.moment(k) for k, c in enumerate(coeffs) if c)


def expect_polynomial(p: Poly, provider: MomentProvider, var: str = "y") -> Poly:
    """Apply E to a polynomial in ``var``, treating ``var`` as the random variable."""
    return expect_falling_basis(falling_basis_coefficients(p, var), provider)


# -- seeded Monte-Carlo cross-check -------------------------------------------------
#
# The PRNG is PCG64 as exposed by numpy.random.default_rng; estimates are
# bit-reproducible for a fixed (seed, samples) pair.


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    std_error: float
    samples: int


def mc_estimate(
    target: Poly,
    provider: MomentProvider,
    point: Mapping[str, Fraction | int],
    samples: int,
    seed: int,
    sample_var: str = "y",
) -> McEstimate:
    """Sample mean of ``target`` with ``sample_var`` drawn from the provider.

    ``point`` pins every other variable to a rational; the result carries
    the standard error of the mean.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    draws = provider.sample_array(rng, samples)
    pinned = target.substitute({name: Fraction(v) for name, v in point.items()})
    extra = pinned.variables() - {sample_var}
    if extra:
        raise ValueError(f"target still contains unassigned variables {sorted(extra)}")
    degree = pinned.degree(sample_var)
    coeffs = [
        float(pinned.coefficient_of(sample_var, k).constant_value())
        for k in range(degree, -1, -1)
    ]
    values = np.polyval(coeffs, draws)
    estimate = float(np.mean(values))
    if samples > 1:
        std_error = float(np.std(values, ddof=1) / np.sqrt(samples))
    else:
        std_error = 0.0
    return McEstimate(estimate=estimate, std_error=std_error, samples=samples)
