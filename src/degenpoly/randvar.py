"""Exact moment sequences for random variables and the polynomial families they induce.

A random variable enters only through its exact degenerate moment sequence
E[(Y)_{n,λ}], which is enough to build E[e_λ^Y(t)] as a formal series and
to apply the expectation functional to any polynomial in Y.  Sampling is a
separate, optional capability used solely by the Monte-Carlo cross-check;
the exact layer never touches floats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from .poly import Poly, PolyLike, ZERO, ONE, as_poly
from .series import OrderExceeded, Series
from .families import (
    degenerate_exp,
    falling_basis_coefficients,
    falling_factorial,
)

if TYPE_CHECKING:  # numpy is imported by the sampling path only
    import numpy as np


class UnsamplableProvider(Exception):
    """The provider has no sampling rule (exact moments only)."""


@dataclass(frozen=True)
class MomentProvider:
    """Base for exact moment sequences; subclasses implement ``moment`` or ``mgf``.

    Each of the two defaults reads the other, so a subclass defines at least
    one.  ``moment(0)`` is 1 for every provider, so the moment series always
    has an invertible constant term.

    A samplable provider reads ``columns`` uniform streams, one generator
    each, and ``sample_array(streams, size)`` draws ``size`` values from
    each of them.
    """

    columns = 1

    def moment(self, n: int) -> Poly:
        """Exponential coefficient n of the moment series."""
        return self.mgf(n).egf_coefficient(n)

    def mgf(self, order: int) -> Series:
        """The moment series: exponential coefficient n is moment(n)."""
        return Series.from_egf(self.moment, order)

    def sample_array(self, streams: Sequence[np.random.Generator], size: int) -> np.ndarray:
        raise UnsamplableProvider(f"{self.label()} cannot be sampled")

    def label(self) -> str:
        return type(self).__name__.lower()


@dataclass(frozen=True)
class Uniform01(MomentProvider):
    """Uniform on [0, 1]: moments by exact termwise integration."""

    def mgf(self, order: int) -> Series:
        # coefficient n of e_λ^y(t) is (y)_{n,λ}/n!, and its integral over [0, 1] is moment(n)/n!
        return degenerate_exp(Poly.var("y"), order).map_coefficients(_integrate_unit_interval)

    def sample_array(self, streams: Sequence[np.random.Generator], size: int) -> np.ndarray:
        return streams[0].random(size)

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

    def sample_array(self, streams: Sequence[np.random.Generator], size: int) -> np.ndarray:
        if not self.p.is_constant():
            raise UnsamplableProvider("Bernoulli with a symbolic probability cannot be sampled")
        pv = self.p.constant_value()
        if pv < 0 or pv > 1:
            raise UnsamplableProvider(f"Bernoulli probability {pv} is outside [0, 1]")
        return (streams[0].random(size) < float(pv)).astype(float)

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

    def mgf(self, order: int) -> Series:
        # independence: the moment series of the sum is the m-th power
        return self.base.mgf(order).pow_int(self.m)

    @property
    def columns(self) -> int:
        return self.m * self.base.columns

    def sample_array(self, streams: Sequence[np.random.Generator], size: int) -> np.ndarray:
        # copy j reads columns [j*w, (j+1)*w); the copies are added in order
        w = self.base.columns
        total = self.base.sample_array(streams[:w], size)
        for j in range(1, self.m):
            total += self.base.sample_array(streams[j * w:(j + 1) * w], size)
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
        return self.series(at).egf_coefficient(n)

    def polynomials(self, n_max: int, at: PolyLike) -> list[Poly]:
        return self.series(at).egf_coefficients(n_max)


# -- the expectation functional ---------------------------------------------------


def expect_falling_basis(coeffs: Sequence[PolyLike], provider: MomentProvider) -> Poly:
    """Apply E to sum_k coeffs[k] * (Y)_{k,λ}: linearity gives sum coeffs[k]*moment(k)."""
    coeffs = (as_poly(c) for c in coeffs)
    return Poly.dot((1, c, provider.moment(k)) for k, c in enumerate(coeffs) if c)


def expect_polynomial(p: Poly, provider: MomentProvider) -> Poly:
    """Apply E to a polynomial in y, treating y as the random variable."""
    return expect_falling_basis(falling_basis_coefficients(p), provider)


# -- seeded Monte-Carlo cross-check -------------------------------------------------
#
# The PRNG is PCG64 as exposed by numpy.random.default_rng.  Sampling runs in
# chunks of CHUNK samples, so memory is bounded by the chunk, not by the
# sample count.  Column c of the provider reads its own PCG64(seed) advanced
# by c * samples draws: that is the stream position column c had when one
# generator drew every column's full array in turn, so each sample's value
# equals that copy-major layout bit for bit.  Estimates are bit-reproducible
# for a fixed (seed, samples) pair.

CHUNK = 1 << 16


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    std_error: float
    samples: int


def sample_chunks(provider: MomentProvider, samples: int, seed: int) -> Iterator[np.ndarray]:
    """The provider's ``samples`` draws, in order, as arrays of at most CHUNK values."""
    import numpy as np

    streams = [
        np.random.Generator(np.random.PCG64(seed).advance(c * samples))
        for c in range(provider.columns)
    ]
    for start in range(0, samples, CHUNK):
        yield provider.sample_array(streams, min(CHUNK, samples - start))


def mc_estimate(
    target: Poly,
    provider: MomentProvider,
    point: Mapping[str, Fraction | int],
    samples: int,
    seed: int,
) -> McEstimate:
    """Sample mean of ``target`` with y drawn from the provider.

    ``point`` pins every other variable to a rational; the result carries
    the standard error of the mean.  Each chunk's mean and centred sum of
    squares are merged pairwise (Chan, Golub & LeVeque, 1979).
    """
    import numpy as np

    if samples < 1:
        raise ValueError("need at least one sample")
    chunks = sample_chunks(provider, samples, seed)
    first = next(chunks)  # an unsamplable provider fails here, before the target is read
    pinned = target.substitute({name: Fraction(v) for name, v in point.items()})
    extra = pinned.variables() - {"y"}
    if extra:
        raise ValueError(f"target still contains unassigned variables {sorted(extra)}")
    degree = pinned.degree("y")
    coeffs = [
        float(pinned.coefficient_of("y", k).constant_value())
        for k in range(degree, -1, -1)
    ]
    count, mean, m2 = 0, 0.0, 0.0
    for draws in itertools.chain((first,), chunks):
        values = np.polyval(coeffs, draws)
        size = len(values)
        chunk_mean = float(values.mean())
        values -= chunk_mean
        chunk_m2 = float(np.square(values, out=values).sum())
        total = count + size
        delta = chunk_mean - mean
        mean += delta * (size / total)
        m2 += chunk_m2 + delta * delta * (count * size / total)
        count = total
    std_error = float(np.sqrt(m2 / (samples - 1)) / np.sqrt(samples)) if samples > 1 else 0.0
    return McEstimate(estimate=mean, std_error=std_error, samples=samples)
