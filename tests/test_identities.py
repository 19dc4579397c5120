from fractions import Fraction

import pytest

from degenpoly import (
    Bernoulli,
    IidSum,
    Poly,
    Uniform01,
    UnknownIdentity,
    X,
    Y,
    A,
    P,
    expect_polynomial,
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
    ws = identities.Workspace(4)
    case = identities._REGISTRY["thm2.3-B"]
    label, lhs, rhs = case.build(ws)[0]
    assert "a" in lhs(2).variables()
    assert "a" in rhs(2).variables()


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        verify("no-such-id")
    with pytest.raises(UnknownIdentity):
        identities.select_ids(["thm9.9"])


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
    identities.register(case)
    try:
        reports = verify_all(ids=["test-corrupt", "thm2.4"], max_n=4)
        unequal = [r for r in reports if not r.equal]
        assert len(unequal) == 1
        report = unequal[0]
        assert report.id == "test-corrupt"
        assert report.mismatch is not None
        assert report.mismatch.n == 2
        assert report.mismatch.diff == Poly.const(-1)
        assert report.mismatch.lhs != report.mismatch.rhs
    finally:
        identities.unregister("test-corrupt")
    assert "test-corrupt" not in registered_ids()


def test_register_rejects_duplicates():
    case = identities.broken_case("thm2.4")
    with pytest.raises(ValueError):
        identities.register(case)


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
    ws = identities.Workspace(5)
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
    ws = identities.Workspace(6)
    providers = (
        Uniform01(),
        Bernoulli(P),
        IidSum(Uniform01(), 3),
        IidSum(Bernoulli(Fraction(1, 2)), 2),
    )
    for provider in providers:
        moments = ws.moments(provider)
        assert moments.table == tuple(provider.moment(k) for k in range(ws.order + 1))
        assert ws.moments(provider) is moments
        for value in ws.sheffer(provider, X + Y)[::2]:
            assert expect_polynomial(value, moments) == expect_polynomial(value, provider)
