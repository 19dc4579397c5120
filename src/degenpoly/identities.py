"""Registry of polynomial identities with a uniform exact checker.

Each case pairs two evaluation recipes that must produce the same
polynomial for every index n up to the checked bound, with order
parameters kept symbolic wherever the algebra permits (a verified
identity in Q[a] covers every real order).  Integer-only parameters
(copy counts of i.i.d. sums) are enumerated over a small fixed set.

A ``Workspace`` memoizes the generating series and the moment tables the
cases share, so a full-registry run costs each of them once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from fnmatch import fnmatch
from math import comb, factorial
from typing import Callable, Iterable

from .poly import Poly, ZERO, ONE, LAM, X, Y, A, B, P, as_poly
from .series import Series
from . import families
from .randvar import (
    Bernoulli,
    CustomMoments,
    IidSum,
    MomentProvider,
    ShefferSequence,
    Uniform01,
    expect_polynomial,
    independent_sum_moments,
)


class UnknownIdentity(Exception):
    """No registered identity matches the requested id."""


@dataclass(frozen=True)
class Mismatch:
    n: int
    lhs: Poly
    rhs: Poly
    instance: str | None = None

    @property
    def diff(self) -> Poly:
        return self.lhs - self.rhs


@dataclass(frozen=True)
class Report:
    id: str
    max_n: int
    equal: bool
    mismatch: Mismatch | None = None


SideFn = Callable[[int], Poly]
Instance = tuple[str | None, SideFn, SideFn]


@dataclass(frozen=True)
class IdentityCase:
    id: str
    description: str
    build: Callable[["Workspace"], list[Instance]]


class Workspace:
    """Order-bound cache of the generating series the identity recipes share."""

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("workspace order must be at least 1")
        self.order = order
        self._cache: dict = {}

    def _get(self, key, make):
        value = self._cache.get(key)
        if value is None:
            value = make()
            self._cache[key] = value
        return value

    def exp_of(self, base: Poly) -> Series:
        return self._get(("exp", base), lambda: families.degenerate_exp(base, self.order))

    def power(self, base: Series, e: Poly) -> Series:
        """A base series raised to a (possibly symbolic) order, formed once."""
        return self._get(("pow", base, e), lambda: base.pow(e))

    def falling(self, base: Poly) -> list[Poly]:
        return self._get(
            ("falling", base),
            lambda: self.exp_of(base).egf_coefficients(self.order),
        )

    def higher_bernoulli(self, e, at: Poly) -> list[Poly]:
        e = as_poly(e)
        return self._get(
            ("hb", e, at),
            lambda: (self.power(families.bernoulli_base(self.order), e) * self.exp_of(at))
            .egf_coefficients(self.order),
        )

    def higher_euler(self, e, at: Poly) -> list[Poly]:
        e = as_poly(e)
        return self._get(
            ("he", e, at),
            lambda: (self.power(families.euler_base(self.order), e) * self.exp_of(at))
            .egf_coefficients(self.order),
        )

    def bernoulli(self, at: Poly) -> list[Poly]:
        return self.higher_bernoulli(ONE, at)

    def euler(self, at: Poly) -> list[Poly]:
        return self.higher_euler(ONE, at)

    def hybrid(self, e1, e2, at: Poly) -> list[Poly]:
        e1, e2 = as_poly(e1), as_poly(e2)
        return self._get(
            ("hybrid", e1, e2, at),
            lambda: (
                self.power(families.bernoulli_base(self.order), e1)
                * self.power(families.euler_base(self.order), e2)
                * self.exp_of(at)
            ).egf_coefficients(self.order),
        )

    def moments(self, provider: MomentProvider) -> CustomMoments:
        """The provider's moments 0..order, read off one moment series."""
        return self._get(
            ("moments", provider),
            lambda: CustomMoments(provider.mgf(self.order).egf_coefficients(self.order)),
        )

    def sheffer(self, provider: MomentProvider, at: Poly) -> list[Poly]:
        def make():
            seq = self._get(("sheffer-seq", provider), lambda: ShefferSequence(provider, self.order))
            return seq.polynomials(self.order, at)

        return self._get(("sheffer", provider, at), make)


_REGISTRY: dict[str, IdentityCase] = {}


def _case(case_id: str, description: str):
    def register(build: Callable[[Workspace], list[Instance]]):
        if case_id in _REGISTRY:
            raise ValueError(f"duplicate identity id {case_id!r}")
        _REGISTRY[case_id] = IdentityCase(case_id, description, build)
        return build

    return register


def registered_ids() -> list[str]:
    return list(_REGISTRY)


def register(case: IdentityCase) -> None:
    """Add a case (used by fault-injection fixtures); ids must be fresh."""
    if case.id in _REGISTRY:
        raise ValueError(f"duplicate identity id {case.id!r}")
    _REGISTRY[case.id] = case


def unregister(case_id: str) -> None:
    _REGISTRY.pop(case_id, None)


def broken_case(case_id: str = "fault-injection") -> IdentityCase:
    """A deliberately corrupted case: its right side is off by one at n = 2."""

    def build(ws: Workspace) -> list[Instance]:
        bern = ws.bernoulli(ZERO)

        def lhs(n: int) -> Poly:
            return bern[n]

        def rhs(n: int) -> Poly:
            return bern[n] + (ONE if n == 2 else ZERO)

        return [(None, lhs, rhs)]

    return IdentityCase(case_id, "deliberately corrupted self-test entry", build)


def select_ids(patterns: Iterable[str] | None) -> list[str]:
    """Resolve glob patterns against the registry, preserving registry order.

    An explicit id (no glob characters) that matches nothing raises
    ``UnknownIdentity``; an unmatched glob just selects nothing.
    """
    if patterns is None:
        return registered_ids()
    chosen: set[str] = set()
    for pattern in patterns:
        if any(ch in pattern for ch in "*?["):
            chosen.update(i for i in _REGISTRY if fnmatch(i, pattern))
        elif pattern in _REGISTRY:
            chosen.add(pattern)
        else:
            raise UnknownIdentity(f"no identity registered under {pattern!r}")
    return [i for i in _REGISTRY if i in chosen]


def verify(case_id: str, max_n: int = 8, workspace: Workspace | None = None) -> Report:
    """Check one identity for n = 0..max_n; exact polynomial comparison.

    The series are built at order max_n + 1, one spare coefficient because
    the shift identities look one index ahead; ``workspace`` is reused when
    its order reaches that.
    """
    case = _REGISTRY.get(case_id)
    if case is None:
        raise UnknownIdentity(f"no identity registered under {case_id!r}")
    order = max_n + 1
    ws = workspace if workspace is not None and workspace.order >= order else Workspace(order)
    for label, lhs, rhs in case.build(ws):
        for n in range(max_n + 1):
            left = lhs(n)
            right = rhs(n)
            if left != right:
                return Report(case.id, max_n, False, Mismatch(n, left, right, label))
    return Report(case.id, max_n, True)


def verify_all(ids: Iterable[str] | None = None, max_n: int = 8) -> list[Report]:
    """Check the given ids (default: the whole registry), sharing one workspace.

    Reports come back in registry order.
    """
    if ids is None:
        ids = registered_ids()
    else:
        wanted = set(ids)
        ids = [i for i in registered_ids() if i in wanted]
    ws = Workspace(max_n + 1)
    return [verify(i, max_n=max_n, workspace=ws) for i in ids]


# -- the registry -----------------------------------------------------------------

_UNIFORM = Uniform01()
_BER_HALF = Bernoulli(Fraction(1, 2))
_BER_P = Bernoulli(P)


def _convolution(left: list[Poly], right: list[Poly]) -> SideFn:
    def side(n: int) -> Poly:
        return Poly.sum(left[k] * right[n - k] * comb(n, k) for k in range(n + 1))

    return side


def _stirling_weights(m: int, order: int) -> list[Poly]:
    """λ^j * S1(j+m, m) / C(j+m, m) for j = 0..order, the weights of thm3.5 and thm3.6."""
    return [
        LAM ** j
        * families.stirling_first(j + m, m)
        * Fraction(factorial(j) * factorial(m), factorial(j + m))
        for j in range(order + 1)
    ]


def _times_t(values: list[Poly]) -> list[Poly]:
    """Exponential coefficients of t*F from those of F: n * values[n-1], and 0 at n = 0."""
    return [ZERO] + [values[n - 1] * n for n in range(1, len(values))]


def _half_raised_bernoulli(ws: Workspace) -> list[Poly]:
    """hb_a(x)[k] + k/2 * hb_{a-1}(x)[k-1], the Bernoulli side of thm3.10 and thm3.11-B."""
    hb = ws.higher_bernoulli(A, X)
    raised = _times_t(ws.higher_bernoulli(A - ONE, X))
    return [value + step / 2 for value, step in zip(hb, raised)]


@_case("prop2.1-B", "order and argument both add across products of Bernoulli-power series")
def _prop21_b(ws: Workspace) -> list[Instance]:
    total = ws.higher_bernoulli(A + B, X + Y)
    rhs = _convolution(ws.higher_bernoulli(A, X), ws.higher_bernoulli(B, Y))
    return [(None, total.__getitem__, rhs)]


@_case("prop2.1-E", "order and argument both add across products of Euler-power series")
def _prop21_e(ws: Workspace) -> list[Instance]:
    total = ws.higher_euler(A + B, X + Y)
    rhs = _convolution(ws.higher_euler(A, X), ws.higher_euler(B, Y))
    return [(None, total.__getitem__, rhs)]


@_case("cor2.2-B", "argument addition formula for the Bernoulli-power family")
def _cor22_b(ws: Workspace) -> list[Instance]:
    total = ws.higher_bernoulli(A, X + Y)
    rhs = _convolution(ws.higher_bernoulli(A, X), ws.falling(Y))
    return [(None, total.__getitem__, rhs)]


@_case("cor2.2-E", "argument addition formula for the Euler-power family")
def _cor22_e(ws: Workspace) -> list[Instance]:
    total = ws.higher_euler(A, X + Y)
    rhs = _convolution(ws.higher_euler(A, X), ws.falling(Y))
    return [(None, total.__getitem__, rhs)]


@_case("thm2.3-B", "forward difference in x lowers the Bernoulli order by one")
def _thm23_b(ws: Workspace) -> list[Instance]:
    shifted = ws.higher_bernoulli(A, X + ONE)
    plain = ws.higher_bernoulli(A, X)
    raised = _times_t(ws.higher_bernoulli(A - ONE, X))

    def lhs(n: int) -> Poly:
        return shifted[n] - plain[n]

    return [(None, lhs, raised.__getitem__)]


@_case("thm2.3-E", "shift mean in x lowers the Euler order by one")
def _thm23_e(ws: Workspace) -> list[Instance]:
    shifted = ws.higher_euler(A, X + ONE)
    plain = ws.higher_euler(A, X)
    lowered = ws.higher_euler(A - ONE, X)

    def lhs(n: int) -> Poly:
        return shifted[n] + plain[n]

    def rhs(n: int) -> Poly:
        return lowered[n] * 2

    return [(None, lhs, rhs)]


@_case("thm2.4", "Bernoulli polynomials as an Euler convolution plus a half-index term")
def _thm24(ws: Workspace) -> list[Instance]:
    bern = ws.bernoulli(X)
    euler = ws.euler(X)
    raised = _times_t(euler)
    conv = _convolution(ws.bernoulli(ZERO), euler)

    def rhs(n: int) -> Poly:
        return raised[n] / 2 + conv(n)

    return [(None, bern.__getitem__, rhs)]


@_case("prop-T-add", "argument split of the hybrid family into its two power factors")
def _prop_t_add(ws: Workspace) -> list[Instance]:
    total = ws.hybrid(A, B, X + Y)
    rhs = _convolution(ws.higher_bernoulli(A, X), ws.higher_euler(B, Y))
    return [(None, total.__getitem__, rhs)]


@_case("prop-T-expand", "hybrid polynomials from their values at zero")
def _prop_t_expand(ws: Workspace) -> list[Instance]:
    at_x = ws.hybrid(A, B, X)
    rhs = _convolution(ws.hybrid(A, B, ZERO), ws.falling(X))
    return [(None, at_x.__getitem__, rhs)]


@_case("thm-T-two-expansions", "hybrid family expanded through either base family")
def _thm_t_two(ws: Workspace) -> list[Instance]:
    at_x = ws.hybrid(A, B, X)
    via_bern = _convolution(ws.hybrid(A - ONE, B, ZERO), ws.bernoulli(X))
    via_euler = _convolution(ws.hybrid(A, B - ONE, ZERO), ws.euler(X))
    return [
        ("through-bernoulli", at_x.__getitem__, via_bern),
        ("through-euler", at_x.__getitem__, via_euler),
    ]


@_case("thm2.7", "halved-parameter Bernoulli values scale to a Bernoulli-Euler convolution")
def _thm27(ws: Workspace) -> list[Instance]:
    half = families.bernoulli_series(X, ws.order).map_coefficients(
        lambda c: c.substitute({"λ": LAM / 2, "x": X / 2})
    )
    doubled = half.scale_t(2)
    rhs = _convolution(ws.bernoulli(ZERO), ws.euler(X))
    return [(None, doubled.egf_coefficient, rhs)]


@_case("thm2.8", "forward difference in x lowers the first hybrid order")
def _thm28(ws: Workspace) -> list[Instance]:
    shifted = ws.hybrid(A, B, X + ONE)
    plain = ws.hybrid(A, B, X)
    raised = _times_t(ws.hybrid(A - ONE, B, X))

    def lhs(n: int) -> Poly:
        return shifted[n] - plain[n]

    return [(None, lhs, raised.__getitem__)]


@_case("thm3.1", "averaging the induced family over its own variable recovers the falling factorials")
def _thm31(ws: Workspace) -> list[Instance]:
    falling = ws.falling(X)
    instances: list[Instance] = []
    for provider in (_UNIFORM, _BER_HALF, _BER_P):
        shifted = ws.sheffer(provider, X + Y)

        def lhs(n: int, shifted=shifted, moments=ws.moments(provider)) -> Poly:
            return expect_polynomial(shifted[n], moments)

        instances.append((provider.label(), lhs, falling.__getitem__))
    return instances


@_case("thm3.2", "the family of an independent sum convolves the two component families")
def _thm32(ws: Workspace) -> list[Instance]:
    pairs = [(_UNIFORM, _BER_HALF), (_BER_P, _UNIFORM), (_UNIFORM, _UNIFORM)]
    instances: list[Instance] = []
    for first, second in pairs:
        joint = independent_sum_moments(first, second, ws.order)
        total = ws.sheffer(joint, X + Y)
        rhs = _convolution(ws.sheffer(first, X), ws.sheffer(second, Y))
        instances.append((f"{first.label()}+{second.label()}", total.__getitem__, rhs))
    return instances


@_case("thm3.3", "closed form of the uniform-variable family through Bernoulli polynomials")
def _thm33(ws: Workspace) -> list[Instance]:
    mine = ws.sheffer(_UNIFORM, X)
    weights = [(-LAM) ** j * Fraction(factorial(j), j + 1) for j in range(ws.order + 1)]
    rhs = _convolution(ws.bernoulli(X), weights)
    return [(None, mine.__getitem__, rhs)]


@_case("thm3.4", "the fair-coin family coincides with the Euler polynomials")
def _thm34(ws: Workspace) -> list[Instance]:
    mine = ws.sheffer(_BER_HALF, X)
    euler = ws.euler(X)
    return [(None, mine.__getitem__, euler.__getitem__)]


@_case("thm3.5", "uniform i.i.d.-sum family through first-kind Stirling weights")
def _thm35(ws: Workspace) -> list[Instance]:
    instances: list[Instance] = []
    for m in (1, 2, 3):
        mine = ws.sheffer(IidSum(_UNIFORM, m), X)
        rhs = _convolution(ws.higher_bernoulli(m, X), _stirling_weights(m, ws.order))
        instances.append((f"m={m}", mine.__getitem__, rhs))
    return instances


@_case("thm3.6", "averaged Stirling-weighted expansion drops the copy count by the averaged copies")
def _thm36(ws: Workspace) -> list[Instance]:
    instances: list[Instance] = []
    for m, l in ((2, 1), (3, 1), (3, 2)):
        shifted = ws.higher_bernoulli(m, X + Y)
        averaged = [expect_polynomial(v, ws.moments(IidSum(_UNIFORM, l))) for v in shifted]
        lhs = _convolution(averaged, _stirling_weights(m, ws.order))
        rhs = _convolution(ws.higher_bernoulli(m - l, X), _stirling_weights(m - l, ws.order))
        instances.append((f"m={m},l={l}", lhs, rhs))
    return instances


@_case("thm3.7", "averaging the coin i.i.d.-sum family drops its order by the averaged copies")
def _thm37(ws: Workspace) -> list[Instance]:
    instances: list[Instance] = []
    for m, l in ((2, 1), (3, 1), (3, 2)):
        shifted = ws.sheffer(IidSum(_BER_HALF, m), X + Y)
        inner = ws.moments(IidSum(_BER_HALF, l))
        remaining = ws.higher_euler(m - l, X)

        def lhs(n: int, shifted=shifted, inner=inner) -> Poly:
            return expect_polynomial(shifted[n], inner)

        instances.append((f"m={m},l={l}", lhs, remaining.__getitem__))
    return instances


@_case("thm3.8", "lowering the second hybrid order averages the shifted and plain values")
def _thm38(ws: Workspace) -> list[Instance]:
    lowered = ws.hybrid(A, B - ONE, X)
    shifted = ws.hybrid(A, B, X + ONE)
    plain = ws.hybrid(A, B, X)

    def rhs(n: int) -> Poly:
        return (shifted[n] + plain[n]) / 2

    return [(None, lowered.__getitem__, rhs)]


@_case("thm3.9", "hybrid value from the order-lowered value minus a half-index correction")
def _thm39(ws: Workspace) -> list[Instance]:
    plain = ws.hybrid(A, B, X)
    lowered_b = ws.hybrid(A, B - ONE, X)
    raised_a = _times_t(ws.hybrid(A - ONE, B, X))

    def rhs(n: int) -> Poly:
        return lowered_b[n] - raised_a[n] / 2

    return [(None, plain.__getitem__, rhs)]


@_case("thm3.10", "swapping an Euler order for a correction on the Bernoulli side")
def _thm310(ws: Workspace) -> list[Instance]:
    lhs = _convolution(ws.higher_bernoulli(A, X), ws.higher_euler(B - ONE, Y))
    rhs = _convolution(_half_raised_bernoulli(ws), ws.higher_euler(B, Y))
    return [(None, lhs, rhs)]


@_case("thm3.11-B", "Bernoulli-power addition formula through Euler polynomials")
def _thm311_b(ws: Workspace) -> list[Instance]:
    total = ws.higher_bernoulli(A, X + Y)
    rhs = _convolution(_half_raised_bernoulli(ws), ws.euler(Y))
    return [(None, total.__getitem__, rhs)]


@_case("thm3.11-E", "Euler-power addition formula through Bernoulli polynomials")
def _thm311_e(ws: Workspace) -> list[Instance]:
    total = ws.higher_euler(B, X + Y)
    he = ws.higher_euler(B, Y)
    he_low = ws.higher_euler(B - ONE, Y)
    steps = [(he_low[k + 1] - he[k + 1]) * Fraction(2, k + 1) for k in range(ws.order)]
    rhs = _convolution(steps, ws.bernoulli(X))
    return [(None, total.__getitem__, rhs)]


@_case("eq50-volkenborn", "uniform-variable family equals the log-over-difference generating series")
def _eq50(ws: Workspace) -> list[Instance]:
    mine = ws.sheffer(_UNIFORM, X)
    log_one_plus_t = Series([ONE, ONE] + [ZERO] * ws.order).log()
    closed = (
        log_one_plus_t.div_t().scale_t(LAM)
        * families.bernoulli_base(ws.order)
        * ws.exp_of(X)
    )
    return [(None, mine.__getitem__, closed.egf_coefficient)]
