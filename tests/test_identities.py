import hashlib
import itertools
import json
import tracemalloc
from fractions import Fraction
from functools import reduce
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from degenpoly import (
    Bernoulli,
    CustomMoments,
    IidSum,
    Poly,
    ShefferSequence,
    Uniform01,
    UnknownIdentity,
    X,
    Y,
    A,
    B,
    LAM,
    ONE,
    P,
    ZERO,
    Zero,
    expect_polynomial,
    falling_factorial,
    higher_bernoulli,
    registered_ids,
    verify,
    verify_all,
)
from degenpoly import cli, families, identities, poly, randvar, series

EXPECTED_IDS = [
    "prop2.1-B",
    "prop2.1-E",
    "cor2.2-B",
    "cor2.2-E",
    "thm2.3-B",
    "thm2.3-E",
    "thm2.4",
    "prop-T-add",
    "prop-T-expand",
    "thm-T-two-expansions",
    "thm2.7",
    "thm2.8",
    "thm3.1",
    "thm3.2",
    "thm3.3",
    "thm3.4",
    "thm3.5",
    "thm3.6",
    "thm3.7",
    "thm3.8",
    "thm3.9",
    "thm3.10",
    "thm3.11-B",
    "thm3.11-E",
    "eq50-volkenborn",
]


def test_registry_contents():
    assert registered_ids() == EXPECTED_IDS


def test_full_registry_quick_pass():
    reports = verify_all(max_n=4)
    assert [r.id for r in reports] == EXPECTED_IDS
    assert all(r.equal for r in reports)
    assert all(r.mismatch is None for r in reports)


def test_difference_identities_at_higher_order():
    assert verify("thm2.3-B", max_n=10).equal
    assert verify("thm2.7", max_n=10).equal
    assert verify("thm3.3", max_n=8).equal


def test_symbolic_parameters_stay_symbolic():
    # a successful check must have compared genuine polynomials in the orders
    case = identities._REGISTRY["thm2.3-B"]
    label, lhs, rhs = case.build(identities.Workspace())[0]
    assert "a" in lhs.egf_coefficient(2).variables()
    assert "a" in rhs.egf_coefficient(2).variables()


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        verify("no-such-id")
    with pytest.raises(UnknownIdentity):
        identities.select_ids(["thm9.9"])
    with pytest.raises(UnknownIdentity, match="no-such-id"):
        verify_all(ids=["thm2.4", "no-such-id"])


def test_select_ids_globbing():
    assert identities.select_ids(["thm2.*"]) == [
        "thm2.3-B",
        "thm2.3-E",
        "thm2.4",
        "thm2.7",
        "thm2.8",
    ]
    assert identities.select_ids(["zzz*"]) == []
    assert identities.select_ids(None) == EXPECTED_IDS


def test_verify_all_empty_filter():
    assert verify_all(ids=[]) == []


def test_corrupted_entry_is_caught():
    case = identities.broken_case("test-corrupt")
    reports = verify_all(ids=["test-corrupt", "thm2.4"], max_n=4, extra=[case])
    unequal = [r for r in reports if not r.equal]
    assert len(unequal) == 1
    report = unequal[0]
    assert report.id == "test-corrupt"
    assert report.mismatch is not None
    assert report.mismatch.n == 2
    assert report.mismatch.diff == Poly.const(-1)
    assert report.mismatch.lhs != report.mismatch.rhs
    assert "test-corrupt" not in registered_ids()


@pytest.mark.parametrize("short", ["lhs", "rhs"])
def test_a_side_that_stops_short_raises(short):
    # verify reads both sides at every n, so a side that stops short cannot pass unchecked
    def build(ws):
        bern = ws.bernoulli(ZERO)
        # a finite moment table's series has no coefficient past its end
        sides = {"lhs": bern, "rhs": bern, short: CustomMoments(bern.egf_coefficients(1)).mgf()}
        return [(None, sides["lhs"], sides["rhs"])]

    case = identities.IdentityCase("short-side", "a side that stops at n = 1", build)
    assert verify(case, max_n=1).equal
    with pytest.raises(series.OrderExceeded):
        verify(case, max_n=4)


def test_register_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate identity id 'thm2.4'"):
        identities._case("thm2.4", "a second case under a registered id")(lambda ws: [])
    assert registered_ids() == EXPECTED_IDS
    with pytest.raises(ValueError, match="duplicate identity id 'thm2.4'"):
        verify_all(ids=[], extra=[identities.broken_case("thm2.4")])


def test_reports_keep_registry_order():
    reports = verify_all(ids=["thm3.4", "prop2.1-B", "thm2.7"], max_n=3)
    assert [r.id for r in reports] == ["prop2.1-B", "thm2.7", "thm3.4"]


def test_shift_by_construction_matches_substitution():
    # families built at x+1 agree with substituting x -> x+1 afterwards
    for n in range(6):
        built = higher_bernoulli(n, A, X + 1)
        substituted = higher_bernoulli(n, A, X).substitute({"x": X + 1})
        assert built == substituted


def test_workspace_is_reused_across_cases():
    ws = identities.Workspace()
    first = verify("prop2.1-B", max_n=4, workspace=ws)
    cached = len(ws._cache)
    second = verify("cor2.2-B", max_n=4, workspace=ws)
    assert first.equal and second.equal
    assert len(ws._cache) > cached  # grew, not rebuilt
    assert ws._cache  # shared state retained


def _cached_functions(namespace) -> set[str]:
    return {name for name, value in vars(namespace).items() if hasattr(value, "cache_info")}


def test_only_the_family_bases_and_stirling_numbers_are_cached():
    # the Workspace owns every other cache, so a run leaves nothing behind in the modules
    verify_all(max_n=4)
    verify_all(max_n=6)
    expected = {families: {"bernoulli_base", "euler_base", "stirling_first"}}
    for module in (poly, series, families, randvar, identities, cli):
        assert _cached_functions(module) == expected.get(module, set()), module.__name__
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                assert _cached_functions(value) == set(), value


def test_workspace_moment_tables():
    ws = identities.Workspace()
    providers = (
        Uniform01(),
        Bernoulli(P),
        IidSum(Uniform01(), 3),
        IidSum(Bernoulli(Fraction(1, 2)), 2),
    )
    for provider in providers:
        for value in ws.sheffer(provider, X + Y).egf_coefficients(6)[::2]:
            assert ws.expect(value, provider) == expect_polynomial(value, provider)


def test_workspace_builds_one_moment_series_per_provider(monkeypatch):
    asked: dict = {}
    for cls in (randvar.MomentProvider, randvar.Uniform01, randvar.IidSum):
        build = vars(cls)["mgf"]

        def spy(self, build=build):
            asked[self] = asked.get(self, 0) + 1
            return build(self)

        monkeypatch.setattr(cls, "mgf", spy)
    ids = ["thm3.1", "thm3.2", "thm3.6", "thm3.7"]
    reports = verify_all(ids, max_n=5)
    assert [r.id for r in reports] == ids and all(r.equal for r in reports)
    # an i.i.d. sum raises its base's series, and thm3.2 multiplies two: only the bases are asked
    assert asked and max(asked.values()) == 1, asked
    assert not any(isinstance(provider, IidSum) for provider in asked)


def test_workspace_sheffer_matches_the_sheffer_sequence():
    ws = identities.Workspace()
    for provider in (Uniform01(), Bernoulli(P), IidSum(Bernoulli(Fraction(1, 2)), 3)):
        assert ws.mgf(provider).egf_coefficients(6) == provider.mgf().egf_coefficients(6)
        assert ws.mgf(provider) is ws.mgf(provider)
        expected = ShefferSequence(provider).polynomials(6, X + Y)
        assert ws.sheffer(provider, X + Y).egf_coefficients(6) == expected


def test_workspace_hybrid_matches_the_family_constructors():
    ws = identities.Workspace()
    named = {(ZERO, ZERO): ws.falling, (ONE, ZERO): ws.bernoulli, (ZERO, ONE): ws.euler}
    for e1, e2, at in itertools.product(
        (ZERO, ONE, A, A - 1), (ZERO, ONE, B, B - 1), (ZERO, X, X + 1, X + Y)
    ):
        factors = [base().pow(e) for base, e in
                   ((families.bernoulli_base, e1), (families.euler_base, e2)) if e]
        product = reduce(mul, factors + [families.degenerate_exp(at)])
        expected = product.egf_coefficients(5)
        assert ws.hybrid(e1, e2, at).egf_coefficients(5) == expected, (e1, e2, at)
        if not e2:
            assert ws.higher_bernoulli(e1, at).egf_coefficients(5) == expected, (e1, at)
        if not e1:
            assert ws.higher_euler(e2, at).egf_coefficients(5) == expected, (e2, at)
        if (e1, e2) in named:
            assert named[e1, e2](at).egf_coefficients(5) == expected, (e1, e2, at)
    for at in (ZERO, X, X + 1, X + Y):
        assert ws.falling(at).egf_coefficients(5) == [falling_factorial(at, n) for n in range(6)]


def test_first_powers_take_no_logarithm(monkeypatch):
    logs = []
    log = series.Series.log

    def spy(self):
        logs.append(self)
        return log(self)

    monkeypatch.setattr(series.Series, "log", spy)
    assert verify("thm2.4", max_n=5).equal
    assert [families.higher_euler(n, 1) for n in range(5)] == families.euler_polynomials(4)
    assert logs == []


def _clear_family_caches():
    for name in ("bernoulli_base", "euler_base", "stirling_first"):
        getattr(families, name).cache_clear()


def test_verify_all_kernel_work_budget(monkeypatch):
    # the products are the registry's cost; a change that makes more of them, or
    # larger ones, for the same values has to raise this budget in plain sight
    _clear_family_caches()
    seen = {"calls": 0, "pairs": 0}
    dot = poly.Poly.dot.__func__

    def spy(cls, triples):
        triples = list(triples)
        seen["calls"] += 1
        seen["pairs"] += sum(len(f.terms) * len(g.terms) for w, f, g in triples if w)
        return dot(cls, triples)

    monkeypatch.setattr(poly.Poly, "dot", classmethod(spy))
    assert all(r.equal for r in verify_all(max_n=6))
    assert seen["calls"] <= 1194, seen
    assert seen["pairs"] <= 59446, seen


def test_verify_all_peak_memory():
    # a lazy series keeps its inputs alive; a Workspace that also cached each
    # per-argument product series peaked at about 8.9 MB here
    _clear_family_caches()
    tracemalloc.start()
    try:
        assert all(r.equal for r in verify_all(max_n=8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7e6, peak


_DIGESTS = json.loads((Path(__file__).parent / "verify_digests.json").read_text(encoding="utf-8"))


def test_every_side_reproduces_its_recorded_values():
    # verify prints only ok, so the values themselves are pinned by their digests
    max_n = _DIGESTS["max_n"]
    ws = identities.Workspace()
    found = {}
    for case_id in registered_ids():
        for label, lhs, rhs in identities._REGISTRY[case_id].build(ws):
            found[case_id if label is None else f"{case_id} [{label}]"] = {
                side: hashlib.sha256(
                    "\n".join(str(values.egf_coefficient(n)) for n in range(max_n + 1)).encode()
                ).hexdigest()
                for side, values in (("lhs", lhs), ("rhs", rhs))
            }
    assert found == _DIGESTS["instances"]


def test_order_zero_checks_the_constant_terms():
    reports = verify_all(max_n=0)
    assert [r.id for r in reports] == EXPECTED_IDS and all(r.equal for r in reports)


_ORDER = 5
_EXPECT_WS = identities.Workspace()
_HALF = Bernoulli(Fraction(1, 2))
_EXPECT_PROVIDERS = (
    Uniform01(),
    _HALF,
    Bernoulli(P),
    IidSum(Uniform01(), 2),
    IidSum(Uniform01(), 3),
    IidSum(_HALF, 1),
    IidSum(_HALF, 2),
    IidSum(_HALF, 3),
    Zero(),
    CustomMoments([ONE, A, A * A - LAM, X + Fraction(1, 3), LAM * A - 2, A ** 3 + X]),
)


@st.composite
def _polys_in_y(draw, order=_ORDER):
    """Polynomials in λ, x, y and a with y-degree at most ``order``."""
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = (draw(st.integers(0, 3)), draw(st.integers(0, 2)), draw(st.integers(0, order)),
                draw(st.integers(0, 2)), 0, 0)
        terms[exps] = draw(st.fractions(min_value=-4, max_value=4, max_denominator=6))
    return Poly(terms)


@pytest.mark.parametrize("provider", _EXPECT_PROVIDERS, ids=lambda p: p.label())
@settings(max_examples=25, deadline=None)
@given(p=_polys_in_y())
def test_workspace_expect_matches_the_falling_basis(provider, p):
    assert _EXPECT_WS.expect(p, provider) == expect_polynomial(p, provider)


def test_workspace_expect_reads_any_y_degree():
    # the ordinary moments extend through the y-degree read, here 10
    p = (X + Y) ** 10 + A * Y ** 7
    for provider in _EXPECT_PROVIDERS[:-1]:  # the last is a finite table of six moments
        assert identities.Workspace().expect(p, provider) == expect_polynomial(p, provider)


def test_workspace_expect_reads_y_degrees_out_of_order():
    # each read extends the ordinary moments from the anti-diagonal kept by the read before
    ws = identities.Workspace()
    for provider in (Uniform01(), Bernoulli(P), IidSum(Uniform01(), 3)):
        for degree in (10, 3, 12):
            p = (X + Y) ** degree
            assert ws.expect(p, provider) == expect_polynomial(p, provider)
