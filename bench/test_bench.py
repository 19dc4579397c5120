"""Self-test of the benchmark harness.

    python3 -m pytest -q bench

Runs a handful of short ops, so it takes a few seconds.
"""

from __future__ import annotations

import hashlib
import io

import pytest

import run
import workloads

CHEAP_OP = ("table", "stirling1", "--n", "10", "--format", "csv")
FAULT_OP = ("verify", "fault-injection", "--inject-fault")


@pytest.fixture(scope="module")
def reference() -> dict:
    return run.load_json(run.REFERENCE)


def test_injected_fault_lands_in_fail_frac(reference):
    # The reference for the fault op is what a sound identity would print.
    healthy_output = b"fault-injection: ok (n <= 8)\n1/1 identities verified\n"
    reference = {**reference, run.op_key(FAULT_OP): {
        "code": 0, "sha256": hashlib.sha256(healthy_output).hexdigest()}}
    results, _ = run.run_pass([CHEAP_OP, FAULT_OP], reference)
    assert [r.ok for r in results] == [True, False]
    assert results[1].code == 1
    assert run.fail_frac(results) == 0.5


def test_traced_op_keeps_output_and_adds_up(reference):
    [result], _ = run.run_pass([CHEAP_OP], reference, traced=True)
    assert result.ok, result.problem
    unattributed, problem = run.attribution(result, run.read_trace(result))
    assert problem == ""
    assert 0 < unattributed < result.wall_s


@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_reported(monkeypatch, trace):
    monkeypatch.setattr(workloads, "generate", lambda workload, seed: [CHEAP_OP])
    result = run.benchmark("table-mix", 0, 0.1, trace, out=io.StringIO())
    spec = run.load_json(run.SPEC)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    assert result["correct"] and result["failed"] == 0


def test_spec_names_every_registered_identity(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    from degenpoly.identities import registered_ids

    spec = run.load_json(run.SPEC)
    prefix, suffix = "identities.verify.", ".s"
    named = [m["name"][len(prefix):-len(suffix)] for m in spec["per_layer"]
             if m["name"].startswith(prefix) and m["name"].endswith(suffix)]
    assert named == registered_ids()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_seeded_and_covered_by_the_reference(workload, reference):
    passes = [workloads.generate(workload, seed) for seed in range(20)]
    assert passes == [workloads.generate(workload, seed) for seed in range(20)]
    assert len({tuple(p) for p in passes}) > 1
    assert all(run.op_key(argv) in reference for p in passes for argv in p)
    assert len(workloads.catalogue(workload)) == len(set(workloads.catalogue(workload)))


def test_tracer_patches_aliases_and_imported_names(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    import trace_op
    from degenpoly import cli, families, identities, poly, randvar, series

    trace_op.Tracer().install()
    Poly, Series = poly.Poly, series.Series
    assert Poly.__radd__ is Poly.__add__ and hasattr(Poly.__add__, "__wrapped__")
    assert Poly.__rmul__ is Poly.__mul__ and hasattr(Poly.__mul__, "__wrapped__")
    assert Series.__rmul__ is Series.__mul__ and hasattr(Series.__mul__, "__wrapped__")
    for name in ("degenerate_exp", "falling_factorial", "falling_basis_coefficients"):
        assert getattr(randvar, name) is getattr(families, name)
        assert hasattr(getattr(families, name), "__wrapped__")
    assert identities.expect_polynomial is randvar.expect_polynomial
    assert cli.mc_estimate is randvar.mc_estimate
    assert hasattr(cli.mc_estimate, "__wrapped__")
