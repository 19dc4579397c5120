"""Exact moment sequences for random variables and the polynomial families they induce.

A random variable enters only through its exact degenerate moment sequence
E[(Y)_{n,λ}], which is enough to build E[e_λ^Y(t)] as a formal series and
to apply the expectation functional to any polynomial in Y.  Sampling is a
separate, optional capability used solely by the Monte-Carlo cross-check;
the exact layer never touches floats.
"""

from __future__ import annotations

import math
import os
import threading
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

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


class MomentProvider:
    """Base for exact moment sequences; subclasses implement ``moment`` or ``mgf``.

    Each of the two defaults reads the other, so a subclass defines at least
    one.  ``moment(0)`` is 1 for every provider, so the moment series always
    has an invertible constant term.

    A samplable provider reads ``columns`` uniform streams, one generator
    each, and ``sample_array(streams, size, out)`` draws ``size`` values from
    each of them.  Its result is a new array when ``out`` is None; otherwise
    it is ``out[:size]``, and ``out`` holds ``buffers * size`` floats, the
    ones past ``size`` being scratch for the draws of i.i.d. copies.

    A provider is immutable and compares and hashes by the fields its
    constructor sets, so equal providers built apart share one cache entry.
    """

    columns = 1
    buffers = 1

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def moment(self, n: int) -> Poly:
        """Exponential coefficient n of the moment series."""
        return self.mgf().egf_coefficient(n)

    def mgf(self) -> Series:
        """The moment series: exponential coefficient n is moment(n)."""
        return Series.from_egf(self.moment)

    def sample_array(self, streams: Sequence[np.random.Generator], size: int,
                     out: np.ndarray | None = None) -> np.ndarray:
        raise UnsamplableProvider(f"{self.label()} cannot be sampled")

    def is_point_mass(self) -> bool:
        """Whether the variable is known to take one value only: its draws are then one float."""
        return False

    def label(self) -> str:
        return type(self).__name__.lower()


class Uniform01(MomentProvider):
    """Uniform on [0, 1]: moments by exact termwise integration."""

    def mgf(self) -> Series:
        # coefficient n of e_λ^y(t) is (y)_{n,λ}/n!, and its integral over [0, 1] is moment(n)/n!
        return degenerate_exp(Poly.var("y")).map_coefficients(_integrate_unit_interval)

    def sample_array(self, streams: Sequence[np.random.Generator], size: int,
                     out: np.ndarray | None = None) -> np.ndarray:
        return streams[0].random(size, out=out)

    def label(self) -> str:
        return "uniform01"


def _integrate_unit_interval(p: Poly) -> Poly:
    """The integral of p over y in [0, 1]: y^k contributes 1/(k+1)."""
    slices = (p.coefficient_of("y", k) for k in range(p.degree("y") + 1))
    return Poly.sum(c / (k + 1) for k, c in enumerate(slices) if c)


class Bernoulli(MomentProvider):
    """Bernoulli with success probability p (a rational or the symbolic p)."""

    p: Poly

    def __init__(self, p: PolyLike):
        object.__setattr__(self, "p", as_poly(p))

    def moment(self, n: int) -> Poly:
        if n == 0:
            return ONE
        return self.p * falling_factorial(ONE, n)

    def is_point_mass(self) -> bool:
        return self.p in (ZERO, ONE)

    def in_range(self) -> bool:
        """Whether p can be a probability: symbolic, or a constant in [0, 1]."""
        return not self.p.is_constant() or 0 <= self.p.constant_value() <= 1

    def sample_array(self, streams: Sequence[np.random.Generator], size: int,
                     out: np.ndarray | None = None) -> np.ndarray:
        import numpy as np

        if not self.p.is_constant():
            raise UnsamplableProvider("Bernoulli with a symbolic probability cannot be sampled")
        pv = self.p.constant_value()
        if not self.in_range():
            raise UnsamplableProvider(f"Bernoulli probability {pv} is outside [0, 1]")
        draws = streams[0].random(size, out=out)
        return np.less(draws, float(pv), out=draws)  # 1.0 or 0.0 in place

    def label(self) -> str:
        return f"ber({self.p})"


class IidSum(MomentProvider):
    """Sum of m independent copies of a base provider."""

    base: MomentProvider
    m: int

    def __init__(self, base: MomentProvider, m: int):
        if m < 1:
            raise ValueError("IidSum needs at least one copy")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "m", m)

    def mgf(self) -> Series:
        # independence: the moment series of the sum is the m-th power, by Miller's recurrence,
        # so a read recurses a fixed depth however large m is
        return self.base.mgf().pow_int(self.m)

    def is_point_mass(self) -> bool:
        return self.base.is_point_mass()

    @property
    def columns(self) -> int:
        return self.m * self.base.columns

    @property
    def buffers(self) -> int:
        # copies after the first are drawn into the scratch after the total
        return self.base.buffers + (self.m > 1)

    def sample_array(self, streams: Sequence[np.random.Generator], size: int,
                     out: np.ndarray | None = None) -> np.ndarray:
        import numpy as np

        if out is None:
            out = np.empty(self.buffers * size)
        # copy j reads columns [j*w, (j+1)*w); the copies are added in order
        w = self.base.columns
        total = self.base.sample_array(streams[:w], size, out[:self.base.buffers * size])
        scratch = out[size:(self.base.buffers + 1) * size]
        for j in range(1, self.m):
            total += self.base.sample_array(streams[j * w:(j + 1) * w], size, scratch)
        return total

    def label(self) -> str:
        return f"iid({self.base.label()},{self.m})"


class Zero(MomentProvider):
    """The random variable that is identically zero (no sampling rule)."""

    def moment(self, n: int) -> Poly:
        return ONE if n == 0 else ZERO

    def is_point_mass(self) -> bool:
        return True

    def label(self) -> str:
        return "zero"


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


# -- the induced polynomial family ------------------------------------------------


class ShefferSequence:
    """Polynomials whose generating series is the degenerate exponential of x
    divided by the provider's moment series."""

    def __init__(self, provider: MomentProvider):
        self.provider = provider
        self.inverse_mgf = provider.mgf().reciprocal()

    def series(self, at: PolyLike) -> Series:
        return self.inverse_mgf * degenerate_exp(at)

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
# chunks of CHUNK samples.  Column c of the provider reads its own PCG64(seed)
# advanced by c * samples draws: that is the stream position column c had
# when one generator drew every column's full array in turn, so each sample's
# value equals that copy-major layout bit for bit.
#
# mc_estimate splits the chunks into one contiguous part per available CPU.
# One function, _part_moments, samples a part: it advances its streams to its
# first chunk, and for each chunk it draws into one reused buffer (plus
# scratch for i.i.d. copies), evaluates the target there by Horner's rule in
# place and keeps the chunk's size, mean and centred sum of squares.  numpy
# releases the interpreter lock inside these kernels, so the parts run in
# parallel threads.  The calling thread takes part 0 and merges every chunk
# in chunk order, so the estimate is the same for any number of parts and
# bit-reproducible for a fixed (seed, samples) pair.
# Each part holds max(provider.buffers, 2) * CHUNK floats, however many
# samples it draws.  2^15 draws sample as fast as 2^16 and hold half the
# memory; 2^14 would halve it again, but made mc ops 10-14% slower.

CHUNK = 1 << 15


class McEstimate(NamedTuple):
    estimate: float
    std_error: float
    samples: int


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def _part_moments(provider: MomentProvider, samples: int, seed: int, first: int, last: int,
                  coeffs: Sequence[float]) -> list[tuple[int, float, float]]:
    """(size, mean, centred sum of squares) of the target at each chunk in [first, last).

    Each column's stream starts where chunk ``first`` begins.  Every chunk is
    drawn into the head of one reused buffer, and the target is evaluated in
    the spare array after the draws, over the scratch of i.i.d. copies.
    Horner's rule there gives ``np.polyval(coeffs, draws)``'s values: that
    starts from (0 * draws + coeffs[0]) * draws + coeffs[1], which is
    coeffs[0] * draws + coeffs[1] for finite draws, and then makes the same
    products and sums.  The mean is the sum over the size, as
    ``ndarray.mean`` computes it.  Parts hand the interpreter lock over at
    each numpy call, so a chunk makes as few calls as it can.  Values past
    the float range are left to ``mc_estimate``'s check of the merged
    scalars, so numpy warns of none (``errstate`` holds in the thread that
    enters it).
    """
    import numpy as np

    streams = [np.random.Generator(np.random.PCG64(seed).advance(c * samples + first * CHUNK))
               for c in range(provider.columns)]
    buffer = np.empty(max(provider.buffers, 2) * CHUNK)
    moments = []
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(first * CHUNK, min(last * CHUNK, samples), CHUNK):
            size = min(CHUNK, samples - start)
            draws = provider.sample_array(streams, size, buffer[:provider.buffers * size])
            values = buffer[size:2 * size]
            np.multiply(draws, coeffs[0], out=values)
            values += coeffs[1]
            for c in coeffs[2:]:
                values *= draws
                values += c
            mean = float(values.sum()) / size
            values -= mean
            moments.append((size, mean, float(np.square(values, out=values).sum())))
    return moments


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
    squares are merged pairwise (Chan, Golub & LeVeque, 1979), in chunk
    order, so the result does not depend on how many threads drew them.
    The merge starts from the first chunk's own figures.  A merged mean or
    sum of squares past the float range raises ``OverflowError``: a chunk
    with inf or nan keeps them non-finite, and so does a merge that overflows.
    """
    import numpy as np

    if samples < 1:
        raise ValueError("need at least one sample")
    chunk_count = -(-samples // CHUNK)
    parts = min(_cpu_count(), chunk_count)
    bounds = [chunk_count * i // parts for i in range(parts + 1)]
    # an unsamplable provider fails on this draw of 0 values, before the target is read
    provider.sample_array([np.random.default_rng(seed)] * provider.columns, 0)
    pinned = target.substitute({name: Fraction(v) for name, v in point.items()})
    extra = pinned.variables() - {"y"}
    if extra:
        raise ValueError(f"target still contains unassigned variables {sorted(extra)}")
    # highest degree first, and at least two: a constant c is read as 0·y + c
    coeffs = [
        float(pinned.coefficient_of("y", k).constant_value())
        for k in range(max(pinned.degree("y"), 1), -1, -1)
    ]
    results: list = [None] * parts

    def run_part(i: int) -> None:
        try:
            results[i] = _part_moments(provider, samples, seed, bounds[i], bounds[i + 1], coeffs)
        except BaseException as exc:  # raised again by the calling thread
            results[i] = exc

    threads = [threading.Thread(target=run_part, args=(i,)) for i in range(1, parts)]
    for thread in threads:
        thread.start()
    try:
        results[0] = _part_moments(provider, samples, seed, 0, bounds[1], coeffs)
    finally:
        for thread in threads:
            thread.join()
    moments = []
    for result in results:
        if isinstance(result, BaseException):
            raise result
        moments += result
    count, mean, m2 = moments[0]
    for size, chunk_mean, chunk_m2 in moments[1:]:
        total = count + size
        delta = chunk_mean - mean
        mean += delta * (size / total)
        m2 += chunk_m2 + delta * delta * (count * size / total)
        count = total
    if not (math.isfinite(mean) and math.isfinite(m2)):
        raise OverflowError("the sampled values of the target pass the float range")
    std_error = float(np.sqrt(m2 / (samples - 1)) / np.sqrt(samples)) if samples > 1 else 0.0
    return McEstimate(estimate=mean, std_error=std_error, samples=samples)
