"""Registry of polynomial identities with a uniform exact checker.

Each case pairs two generating series, its sides, whose exponential
coefficients must be the same polynomial at every n up to the checked
bound, with order parameters kept symbolic wherever the algebra permits (a
verified identity in Q[a] covers every real order).  A side is written as
the paper writes it, in series algebra: a convolution of two families is a
product, a factor t a shift, and an average over Y acts on every
coefficient.  Integer-only parameters (copy counts of i.i.d. sums) are
enumerated over a small fixed set.

The cases read their families from one ``families.Workspace`` per run, the
recipe that ``table`` and the library calls read too; it memoizes the
generating series and the moment series the cases share, so a full-registry
run costs each of them once.
"""

from __future__ import annotations

from fractions import Fraction
from fnmatch import fnmatch
from math import factorial
from typing import Callable, Iterable, NamedTuple

from .poly import Poly, ZERO, ONE, LAM, X, Y, A, B, P
from .series import Series
from . import families
from .families import Workspace
from .randvar import (
    Bernoulli,
    IidSum,
    MomentProvider,
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


Instance = tuple[str | None, Series, Series]


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
        return [(None, bern, bern + Series([ZERO, ZERO, Fraction(1, 2)]))]

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

    Both sides are read at every n ≤ max_n, so a side that stops short raises.
    """
    case = case_id if isinstance(case_id, IdentityCase) else _REGISTRY.get(case_id)
    if case is None:
        raise UnknownIdentity(f"no identity registered under {case_id!r}")
    ws = workspace if workspace is not None else Workspace()
    for label, lhs, rhs in case.build(ws):
        for n in range(max_n + 1):
            # a value is n! times the ordinary coefficient, so only a mismatch is scaled
            if lhs.coefficient(n) != rhs.coefficient(n):
                mismatch = Mismatch(n, lhs.egf_coefficient(n), rhs.egf_coefficient(n), label)
                return Report(case.id, max_n, False, mismatch)
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
    ws = Workspace()
    # a registered case goes by its id, which is what a traced ``verify`` keys its time by
    return [verify(by_id.get(i, i), max_n=max_n, workspace=ws) for i in chosen]


# -- the registry -----------------------------------------------------------------

_UNIFORM = Uniform01()
_BER_HALF = Bernoulli(Fraction(1, 2))
_BER_P = Bernoulli(P)


def _stirling_weights(m: int) -> Series:
    """The weights of thm3.5 and thm3.6: exponential coefficient j is λ^j S1(j+m, m)/C(j+m, m)."""
    return Series.from_egf(lambda j: families.stirling_first(j + m, m)
                           * Fraction(factorial(j) * factorial(m), factorial(j + m))).scale_t(LAM)


def _times_t(f: Series) -> Series:
    """t * f: coefficient n is coefficient n − 1 of f."""
    return Series([ZERO], lambda out: f.coefficient(len(out) - 1))


def _average(ws: Workspace, f: Series, provider: MomentProvider) -> Series:
    """f with y averaged over the provider's variable, coefficient by coefficient."""
    return f.map_coefficients(lambda c: ws.expect(c, provider))


def _half_raised_bernoulli(ws: Workspace) -> Series:
    """B^a e_λ^x + (t/2) B^(a−1) e_λ^x, the Bernoulli side of thm3.10 and thm3.11-B."""
    return ws.higher_bernoulli(A, X) + _times_t(ws.higher_bernoulli(A - ONE, X)) * Fraction(1, 2)


@_case("prop2.1-B", "order and argument both add across products of Bernoulli-power series")
def _prop21_b(ws: Workspace) -> list[Instance]:
    total = ws.higher_bernoulli(A + B, X + Y)
    return [(None, total, ws.higher_bernoulli(A, X) * ws.higher_bernoulli(B, Y))]


@_case("prop2.1-E", "order and argument both add across products of Euler-power series")
def _prop21_e(ws: Workspace) -> list[Instance]:
    total = ws.higher_euler(A + B, X + Y)
    return [(None, total, ws.higher_euler(A, X) * ws.higher_euler(B, Y))]


@_case("cor2.2-B", "argument addition formula for the Bernoulli-power family")
def _cor22_b(ws: Workspace) -> list[Instance]:
    total = ws.higher_bernoulli(A, X + Y)
    return [(None, total, ws.higher_bernoulli(A, X) * ws.falling(Y))]


@_case("cor2.2-E", "argument addition formula for the Euler-power family")
def _cor22_e(ws: Workspace) -> list[Instance]:
    total = ws.higher_euler(A, X + Y)
    return [(None, total, ws.higher_euler(A, X) * ws.falling(Y))]


@_case("thm2.3-B", "forward difference in x lowers the Bernoulli order by one")
def _thm23_b(ws: Workspace) -> list[Instance]:
    difference = ws.higher_bernoulli(A, X + ONE) - ws.higher_bernoulli(A, X)
    return [(None, difference, _times_t(ws.higher_bernoulli(A - ONE, X)))]


@_case("thm2.3-E", "shift mean in x lowers the Euler order by one")
def _thm23_e(ws: Workspace) -> list[Instance]:
    total = ws.higher_euler(A, X + ONE) + ws.higher_euler(A, X)
    return [(None, total, ws.higher_euler(A - ONE, X) * 2)]


@_case("thm2.4", "Bernoulli polynomials as an Euler convolution plus a half-index term")
def _thm24(ws: Workspace) -> list[Instance]:
    euler = ws.euler(X)
    rhs = _times_t(euler) * Fraction(1, 2) + ws.bernoulli(ZERO) * euler
    return [(None, ws.bernoulli(X), rhs)]


@_case("prop-T-add", "argument split of the hybrid family into its two power factors")
def _prop_t_add(ws: Workspace) -> list[Instance]:
    total = ws.hybrid(A, B, X + Y)
    return [(None, total, ws.higher_bernoulli(A, X) * ws.higher_euler(B, Y))]


@_case("prop-T-expand", "hybrid polynomials from their values at zero")
def _prop_t_expand(ws: Workspace) -> list[Instance]:
    return [(None, ws.hybrid(A, B, X), ws.hybrid(A, B, ZERO) * ws.falling(X))]


@_case("thm-T-two-expansions", "hybrid family expanded through either base family")
def _thm_t_two(ws: Workspace) -> list[Instance]:
    at_x = ws.hybrid(A, B, X)
    return [
        ("through-bernoulli", at_x, ws.hybrid(A - ONE, B, ZERO) * ws.bernoulli(X)),
        ("through-euler", at_x, ws.hybrid(A, B - ONE, ZERO) * ws.euler(X)),
    ]


@_case("thm2.7", "halved-parameter Bernoulli values scale to a Bernoulli-Euler convolution")
def _thm27(ws: Workspace) -> list[Instance]:
    halved = ws.bernoulli(X).map_coefficients(lambda v: v.substitute({"λ": LAM / 2, "x": X / 2}))
    return [(None, halved.scale_t(2), ws.bernoulli(ZERO) * ws.euler(X))]


@_case("thm2.8", "forward difference in x lowers the first hybrid order")
def _thm28(ws: Workspace) -> list[Instance]:
    difference = ws.hybrid(A, B, X + ONE) - ws.hybrid(A, B, X)
    return [(None, difference, _times_t(ws.hybrid(A - ONE, B, X)))]


@_case("thm3.1", "averaging the induced family over its own variable recovers the falling factorials")
def _thm31(ws: Workspace) -> list[Instance]:
    return [(provider.label(), _average(ws, ws.sheffer(provider, X + Y), provider), ws.falling(X))
            for provider in (_UNIFORM, _BER_HALF, _BER_P)]


@_case("thm3.2", "the family of an independent sum convolves the two component families")
def _thm32(ws: Workspace) -> list[Instance]:
    pairs = [(_UNIFORM, _BER_HALF), (_BER_P, _UNIFORM), (_UNIFORM, _UNIFORM)]
    instances: list[Instance] = []
    for first, second in pairs:
        total = (ws.mgf(first) * ws.mgf(second)).reciprocal() * ws.exp_of(X + Y)
        rhs = ws.sheffer(first, X) * ws.sheffer(second, Y)
        instances.append((f"{first.label()}+{second.label()}", total, rhs))
    return instances


@_case("thm3.3", "closed form of the uniform-variable family through Bernoulli polynomials")
def _thm33(ws: Workspace) -> list[Instance]:
    weights = Series.from_egf(lambda j: Fraction(factorial(j), j + 1)).scale_t(-LAM)
    return [(None, ws.sheffer(_UNIFORM, X), ws.bernoulli(X) * weights)]


@_case("thm3.4", "the fair-coin family coincides with the Euler polynomials")
def _thm34(ws: Workspace) -> list[Instance]:
    return [(None, ws.sheffer(_BER_HALF, X), ws.euler(X))]


@_case("thm3.5", "uniform i.i.d.-sum family through first-kind Stirling weights")
def _thm35(ws: Workspace) -> list[Instance]:
    return [(f"m={m}", ws.sheffer(IidSum(_UNIFORM, m), X),
             ws.higher_bernoulli(m, X) * _stirling_weights(m))
            for m in (1, 2, 3)]


@_case("thm3.6", "averaged Stirling-weighted expansion drops the copy count by the averaged copies")
def _thm36(ws: Workspace) -> list[Instance]:
    instances: list[Instance] = []
    for m, l in ((2, 1), (3, 1), (3, 2)):
        averaged = _average(ws, ws.higher_bernoulli(m, X + Y), IidSum(_UNIFORM, l))
        rhs = ws.higher_bernoulli(m - l, X) * _stirling_weights(m - l)
        instances.append((f"m={m},l={l}", averaged * _stirling_weights(m), rhs))
    return instances


@_case("thm3.7", "averaging the coin i.i.d.-sum family drops its order by the averaged copies")
def _thm37(ws: Workspace) -> list[Instance]:
    return [(f"m={m},l={l}",
             _average(ws, ws.sheffer(IidSum(_BER_HALF, m), X + Y), IidSum(_BER_HALF, l)),
             ws.higher_euler(m - l, X))
            for m, l in ((2, 1), (3, 1), (3, 2))]


@_case("thm3.8", "lowering the second hybrid order averages the shifted and plain values")
def _thm38(ws: Workspace) -> list[Instance]:
    mean = (ws.hybrid(A, B, X + ONE) + ws.hybrid(A, B, X)) * Fraction(1, 2)
    return [(None, ws.hybrid(A, B - ONE, X), mean)]


@_case("thm3.9", "hybrid value from the order-lowered value minus a half-index correction")
def _thm39(ws: Workspace) -> list[Instance]:
    rhs = ws.hybrid(A, B - ONE, X) - _times_t(ws.hybrid(A - ONE, B, X)) * Fraction(1, 2)
    return [(None, ws.hybrid(A, B, X), rhs)]


@_case("thm3.10", "swapping an Euler order for a correction on the Bernoulli side")
def _thm310(ws: Workspace) -> list[Instance]:
    lhs = ws.higher_bernoulli(A, X) * ws.higher_euler(B - ONE, Y)
    return [(None, lhs, _half_raised_bernoulli(ws) * ws.higher_euler(B, Y))]


@_case("thm3.11-B", "Bernoulli-power addition formula through Euler polynomials")
def _thm311_b(ws: Workspace) -> list[Instance]:
    total = ws.higher_bernoulli(A, X + Y)
    return [(None, total, _half_raised_bernoulli(ws) * ws.euler(Y))]


@_case("thm3.11-E", "Euler-power addition formula through Bernoulli polynomials")
def _thm311_e(ws: Workspace) -> list[Instance]:
    steps = (ws.higher_euler(B - ONE, Y) - ws.higher_euler(B, Y)).div_t() * 2
    return [(None, ws.higher_euler(B, X + Y), steps * ws.bernoulli(X))]


@_case("eq50-volkenborn", "uniform-variable family equals the log-over-difference generating series")
def _eq50(ws: Workspace) -> list[Instance]:
    log_over_t = Series([ONE, ONE]).log().div_t().scale_t(LAM)
    return [(None, ws.sheffer(_UNIFORM, X), log_over_t * ws.bernoulli(X))]
