"""Registry of polynomial identities with a uniform exact checker.

Each case pairs two value lists, its sides at n = 0..order of the workspace,
that must hold the same polynomial at every index n up to the checked bound,
with order parameters kept symbolic wherever the algebra permits (a verified
identity in Q[a] covers every real order).  Integer-only parameters
(copy counts of i.i.d. sums) are enumerated over a small fixed set.

The cases read their families from one ``families.Workspace`` per run, the
recipe that ``table`` and the library calls read too; it memoizes the
generating series and the moment series the cases share, so a full-registry
run costs each of them once.
"""

from __future__ import annotations

from fractions import Fraction
from fnmatch import fnmatch
from math import comb, factorial
from typing import Callable, Iterable, NamedTuple

from .poly import Poly, ZERO, ONE, LAM, X, Y, A, B, P
from .series import Series
from . import families
from .families import Workspace
from .randvar import (
    Bernoulli,
    CustomMoments,
    IidSum,
    Uniform01,
    expect_polynomial,
)

# the registry averages through ``Workspace.expect``; the import stays because the benchmark's
# self-test (bench/test_bench.py) asserts that it binds ``randvar.expect_polynomial`` here
_ORACLE = expect_polynomial


class UnknownIdentity(Exception):
    """No registered identity matches the requested id."""


class Mismatch(NamedTuple):
    n: int
    lhs: Poly
    rhs: Poly
    instance: str | None = None

    @property
    def diff(self) -> Poly:
        return self.lhs - self.rhs


class Report(NamedTuple):
    id: str
    max_n: int
    equal: bool
    mismatch: Mismatch | None = None


Instance = tuple[str | None, list[Poly], list[Poly]]


class IdentityCase(NamedTuple):
    id: str
    description: str
    build: Callable[[Workspace], list[Instance]]


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


def broken_case(case_id: str = "fault-injection") -> IdentityCase:
    """A deliberately corrupted case: its right side is off by one at n = 2."""

    def build(ws: Workspace) -> list[Instance]:
        bern = ws.bernoulli(ZERO)
        off_by_one = [value + ONE if n == 2 else value for n, value in enumerate(bern)]
        return [(None, bern, off_by_one)]

    return IdentityCase(case_id, "deliberately corrupted self-test entry", build)


def select_ids(patterns: Iterable[str] | None, extra: Iterable[IdentityCase] = ()) -> list[str]:
    """Resolve glob patterns against the registry and ``extra``, preserving their order.

    ``extra`` cases join the registry for this call; their ids must be fresh.
    An explicit id (no glob characters) that matches nothing raises
    ``UnknownIdentity``; an unmatched glob just selects nothing.
    """
    cases = dict(_REGISTRY)
    for case in extra:
        if case.id in cases:
            raise ValueError(f"duplicate identity id {case.id!r}")
        cases[case.id] = case
    if patterns is None:
        return list(cases)
    chosen: set[str] = set()
    for pattern in patterns:
        if any(ch in pattern for ch in "*?["):
            chosen.update(i for i in cases if fnmatch(i, pattern))
        elif pattern in cases:
            chosen.add(pattern)
        else:
            raise UnknownIdentity(f"no identity registered under {pattern!r}")
    return [i for i in cases if i in chosen]


def verify(
    case_id: str | IdentityCase, max_n: int = 8, workspace: Workspace | None = None
) -> Report:
    """Check one identity, a registered id or a case, for n = 0..max_n; exact comparison.

    ``workspace`` is reused when its value lists reach max_n.  Both sides are indexed
    at every n ≤ max_n, so a side that stops short raises ``IndexError``.
    """
    case = case_id if isinstance(case_id, IdentityCase) else _REGISTRY.get(case_id)
    if case is None:
        raise UnknownIdentity(f"no identity registered under {case_id!r}")
    ws = workspace if workspace is not None and workspace.order >= max_n else Workspace(max_n)
    for label, lhs, rhs in case.build(ws):
        for n in range(max_n + 1):
            if lhs[n] != rhs[n]:
                return Report(case.id, max_n, False, Mismatch(n, lhs[n], rhs[n], label))
    return Report(case.id, max_n, True)


def verify_all(
    ids: Iterable[str] | None = None, max_n: int = 8, extra: Iterable[IdentityCase] = ()
) -> list[Report]:
    """Check the ids or globs that ``select_ids`` resolves (default: the registry and ``extra``).

    The cases share one workspace.  Reports come back in registry order,
    ``extra`` last.
    """
    extra = list(extra)
    chosen = select_ids(ids, extra)
    by_id = {case.id: case for case in extra}
    ws = Workspace(max_n)
    # a registered case goes by its id, which is what a traced ``verify`` keys its time by
    return [verify(by_id.get(i, i), max_n=max_n, workspace=ws) for i in chosen]


# -- the registry -----------------------------------------------------------------

_UNIFORM = Uniform01()
_BER_HALF = Bernoulli(Fraction(1, 2))
_BER_P = Bernoulli(P)


def _convolution(left: list[Poly], right: list[Poly]) -> list[Poly]:
    """Exponential coefficients of F*G from those of F and G, as far as ``left`` goes."""
    return [Poly.dot((comb(n, k), left[k], right[n - k]) for k in range(n + 1))
            for n in range(len(left))]


def _stirling_weights(m: int, n_max: int) -> list[Poly]:
    """λ^j * S1(j+m, m) / C(j+m, m) for j = 0..n_max, the weights of thm3.5 and thm3.6."""
    return [
        LAM ** j
        * families.stirling_first(j + m, m)
        * Fraction(factorial(j) * factorial(m), factorial(j + m))
        for j in range(n_max + 1)
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
    return [(None, total, rhs)]


@_case("prop2.1-E", "order and argument both add across products of Euler-power series")
def _prop21_e(ws: Workspace) -> list[Instance]:
    total = ws.higher_euler(A + B, X + Y)
    rhs = _convolution(ws.higher_euler(A, X), ws.higher_euler(B, Y))
    return [(None, total, rhs)]


@_case("cor2.2-B", "argument addition formula for the Bernoulli-power family")
def _cor22_b(ws: Workspace) -> list[Instance]:
    total = ws.higher_bernoulli(A, X + Y)
    rhs = _convolution(ws.higher_bernoulli(A, X), ws.falling(Y))
    return [(None, total, rhs)]


@_case("cor2.2-E", "argument addition formula for the Euler-power family")
def _cor22_e(ws: Workspace) -> list[Instance]:
    total = ws.higher_euler(A, X + Y)
    rhs = _convolution(ws.higher_euler(A, X), ws.falling(Y))
    return [(None, total, rhs)]


@_case("thm2.3-B", "forward difference in x lowers the Bernoulli order by one")
def _thm23_b(ws: Workspace) -> list[Instance]:
    shifted = ws.higher_bernoulli(A, X + ONE)
    plain = ws.higher_bernoulli(A, X)
    raised = _times_t(ws.higher_bernoulli(A - ONE, X))
    difference = [s - p for s, p in zip(shifted, plain)]
    return [(None, difference, raised)]


@_case("thm2.3-E", "shift mean in x lowers the Euler order by one")
def _thm23_e(ws: Workspace) -> list[Instance]:
    shifted = ws.higher_euler(A, X + ONE)
    plain = ws.higher_euler(A, X)
    lowered = ws.higher_euler(A - ONE, X)
    total = [s + p for s, p in zip(shifted, plain)]
    doubled = [v * 2 for v in lowered]
    return [(None, total, doubled)]


@_case("thm2.4", "Bernoulli polynomials as an Euler convolution plus a half-index term")
def _thm24(ws: Workspace) -> list[Instance]:
    bern = ws.bernoulli(X)
    euler = ws.euler(X)
    raised = _times_t(euler)
    conv = _convolution(ws.bernoulli(ZERO), euler)
    rhs = [r / 2 + c for r, c in zip(raised, conv)]
    return [(None, bern, rhs)]


@_case("prop-T-add", "argument split of the hybrid family into its two power factors")
def _prop_t_add(ws: Workspace) -> list[Instance]:
    total = ws.hybrid(A, B, X + Y)
    rhs = _convolution(ws.higher_bernoulli(A, X), ws.higher_euler(B, Y))
    return [(None, total, rhs)]


@_case("prop-T-expand", "hybrid polynomials from their values at zero")
def _prop_t_expand(ws: Workspace) -> list[Instance]:
    at_x = ws.hybrid(A, B, X)
    rhs = _convolution(ws.hybrid(A, B, ZERO), ws.falling(X))
    return [(None, at_x, rhs)]


@_case("thm-T-two-expansions", "hybrid family expanded through either base family")
def _thm_t_two(ws: Workspace) -> list[Instance]:
    at_x = ws.hybrid(A, B, X)
    via_bern = _convolution(ws.hybrid(A - ONE, B, ZERO), ws.bernoulli(X))
    via_euler = _convolution(ws.hybrid(A, B - ONE, ZERO), ws.euler(X))
    return [
        ("through-bernoulli", at_x, via_bern),
        ("through-euler", at_x, via_euler),
    ]


@_case("thm2.7", "halved-parameter Bernoulli values scale to a Bernoulli-Euler convolution")
def _thm27(ws: Workspace) -> list[Instance]:
    doubled = [
        v.substitute({"λ": LAM / 2, "x": X / 2}) * 2 ** n for n, v in enumerate(ws.bernoulli(X))
    ]
    rhs = _convolution(ws.bernoulli(ZERO), ws.euler(X))
    return [(None, doubled, rhs)]


@_case("thm2.8", "forward difference in x lowers the first hybrid order")
def _thm28(ws: Workspace) -> list[Instance]:
    shifted = ws.hybrid(A, B, X + ONE)
    plain = ws.hybrid(A, B, X)
    raised = _times_t(ws.hybrid(A - ONE, B, X))
    difference = [s - p for s, p in zip(shifted, plain)]
    return [(None, difference, raised)]


@_case("thm3.1", "averaging the induced family over its own variable recovers the falling factorials")
def _thm31(ws: Workspace) -> list[Instance]:
    falling = ws.falling(X)
    instances: list[Instance] = []
    for provider in (_UNIFORM, _BER_HALF, _BER_P):
        averaged = [ws.expect(v, provider) for v in ws.sheffer(provider, X + Y)]
        instances.append((provider.label(), averaged, falling))
    return instances


@_case("thm3.2", "the family of an independent sum convolves the two component families")
def _thm32(ws: Workspace) -> list[Instance]:
    pairs = [(_UNIFORM, _BER_HALF), (_BER_P, _UNIFORM), (_UNIFORM, _UNIFORM)]
    instances: list[Instance] = []
    for first, second in pairs:
        joint = CustomMoments((ws.mgf(first) * ws.mgf(second)).egf_coefficients(ws.order))
        total = ws.sheffer(joint, X + Y)
        rhs = _convolution(ws.sheffer(first, X), ws.sheffer(second, Y))
        instances.append((f"{first.label()}+{second.label()}", total, rhs))
    return instances


@_case("thm3.3", "closed form of the uniform-variable family through Bernoulli polynomials")
def _thm33(ws: Workspace) -> list[Instance]:
    mine = ws.sheffer(_UNIFORM, X)
    weights = [(-LAM) ** j * Fraction(factorial(j), j + 1) for j in range(ws.order + 1)]
    rhs = _convolution(ws.bernoulli(X), weights)
    return [(None, mine, rhs)]


@_case("thm3.4", "the fair-coin family coincides with the Euler polynomials")
def _thm34(ws: Workspace) -> list[Instance]:
    mine = ws.sheffer(_BER_HALF, X)
    euler = ws.euler(X)
    return [(None, mine, euler)]


@_case("thm3.5", "uniform i.i.d.-sum family through first-kind Stirling weights")
def _thm35(ws: Workspace) -> list[Instance]:
    instances: list[Instance] = []
    for m in (1, 2, 3):
        mine = ws.sheffer(IidSum(_UNIFORM, m), X)
        rhs = _convolution(ws.higher_bernoulli(m, X), _stirling_weights(m, ws.order))
        instances.append((f"m={m}", mine, rhs))
    return instances


@_case("thm3.6", "averaged Stirling-weighted expansion drops the copy count by the averaged copies")
def _thm36(ws: Workspace) -> list[Instance]:
    instances: list[Instance] = []
    for m, l in ((2, 1), (3, 1), (3, 2)):
        inner = IidSum(_UNIFORM, l)
        averaged = [ws.expect(v, inner) for v in ws.higher_bernoulli(m, X + Y)]
        lhs = _convolution(averaged, _stirling_weights(m, ws.order))
        rhs = _convolution(ws.higher_bernoulli(m - l, X), _stirling_weights(m - l, ws.order))
        instances.append((f"m={m},l={l}", lhs, rhs))
    return instances


@_case("thm3.7", "averaging the coin i.i.d.-sum family drops its order by the averaged copies")
def _thm37(ws: Workspace) -> list[Instance]:
    instances: list[Instance] = []
    for m, l in ((2, 1), (3, 1), (3, 2)):
        shifted = ws.sheffer(IidSum(_BER_HALF, m), X + Y)
        inner = IidSum(_BER_HALF, l)
        averaged = [ws.expect(v, inner) for v in shifted]
        remaining = ws.higher_euler(m - l, X)
        instances.append((f"m={m},l={l}", averaged, remaining))
    return instances


@_case("thm3.8", "lowering the second hybrid order averages the shifted and plain values")
def _thm38(ws: Workspace) -> list[Instance]:
    lowered = ws.hybrid(A, B - ONE, X)
    shifted = ws.hybrid(A, B, X + ONE)
    plain = ws.hybrid(A, B, X)
    mean = [(s + p) / 2 for s, p in zip(shifted, plain)]
    return [(None, lowered, mean)]


@_case("thm3.9", "hybrid value from the order-lowered value minus a half-index correction")
def _thm39(ws: Workspace) -> list[Instance]:
    plain = ws.hybrid(A, B, X)
    lowered_b = ws.hybrid(A, B - ONE, X)
    raised_a = _times_t(ws.hybrid(A - ONE, B, X))
    rhs = [low - step / 2 for low, step in zip(lowered_b, raised_a)]
    return [(None, plain, rhs)]


@_case("thm3.10", "swapping an Euler order for a correction on the Bernoulli side")
def _thm310(ws: Workspace) -> list[Instance]:
    lhs = _convolution(ws.higher_bernoulli(A, X), ws.higher_euler(B - ONE, Y))
    rhs = _convolution(_half_raised_bernoulli(ws), ws.higher_euler(B, Y))
    return [(None, lhs, rhs)]


@_case("thm3.11-B", "Bernoulli-power addition formula through Euler polynomials")
def _thm311_b(ws: Workspace) -> list[Instance]:
    total = ws.higher_bernoulli(A, X + Y)
    rhs = _convolution(_half_raised_bernoulli(ws), ws.euler(Y))
    return [(None, total, rhs)]


@_case("thm3.11-E", "Euler-power addition formula through Bernoulli polynomials")
def _thm311_e(ws: Workspace) -> list[Instance]:
    total = ws.higher_euler(B, X + Y)
    # step k reads index k + 1, one past the workspace's lists for k = order
    euler = families.euler_base()
    he = ws.power(euler, B) * ws.exp_of(Y)
    he_low = ws.power(euler, B - ONE) * ws.exp_of(Y)
    steps = [(he_low.egf_coefficient(k + 1) - he.egf_coefficient(k + 1)) * Fraction(2, k + 1)
             for k in range(ws.order + 1)]
    rhs = _convolution(steps, ws.bernoulli(X))
    return [(None, total, rhs)]


@_case("eq50-volkenborn", "uniform-variable family equals the log-over-difference generating series")
def _eq50(ws: Workspace) -> list[Instance]:
    mine = ws.sheffer(_UNIFORM, X)
    log_one_plus_t = Series([ONE, ONE]).log()
    closed = log_one_plus_t.div_t().scale_t(LAM) * families.bernoulli_base() * ws.exp_of(X)
    return [(None, mine, closed.egf_coefficients(ws.order))]
