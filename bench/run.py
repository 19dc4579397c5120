"""degenpoly benchmark: seeded CLI workloads, end to end and layer by layer.

    python3 bench/run.py --workload table-mix --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --make-reference

Load model: a closed loop with one client.  Each op is one fresh
``python -m degenpoly.cli ...`` process, started after the previous one has
exited, with ``src`` on PYTHONPATH and no DEGENPOLY_* variables.  The seed
generates one pass (see ``workloads.py``); the pass is repeated until
its ops have used up ``--seconds``, and always at least once.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs the pass once untraced and once under ``trace_op.py``
and reports the per-layer metrics of the traced pass, its tracing overhead
and the unattributed time (interpreter start, imports, argparse).

Every op is checked against ``reference.json``, recorded by
``--make-reference``: a verify or table op must reproduce the reference exit
code and stdout SHA-256; an mc op must exit 0, reproduce the reference
``exact`` string and report ``pass: true``.  The last stdout line is the
result object; the lines before it say the same for a human reader.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH / "reference.json"
TRACE_SCRIPT = BENCH / "trace_op.py"
TRACE_PREFIX = "TRACE "  # marks the stderr line trace_op.py ends with

SETUP_REPEATS = 15
OP_TIMEOUT_S = 150
ATTRIBUTION_TOL_S = 1e-6


class BenchError(Exception):
    """The benchmark cannot run here (missing program, reference or metric)."""


@dataclass
class OpResult:
    argv: tuple[str, ...]
    code: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    ok: bool = False
    problem: str = ""


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DEGENPOLY_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(cmd: list[str]) -> OpResult:
    """Run one child to completion; peak RSS comes from wait4 on that child alone."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_child_env(), cwd=ROOT) as proc:
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        stderr: list[bytes] = []
        drain = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
        drain.start()
        try:
            stdout = proc.stdout.read()
            drain.join()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return OpResult(tuple(cmd), proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6,
                    stdout, stderr[0] if stderr else b"")


def cli_command(argv) -> list[str]:
    return [sys.executable, "-m", "degenpoly.cli", *argv]


def traced_command(argv) -> list[str]:
    return [sys.executable, str(TRACE_SCRIPT), *argv]


def op_key(argv) -> str:
    return " ".join(argv)


def expected_of(argv, result: OpResult) -> dict:
    """The reference entry an op's output would produce."""
    if argv[0] == "mc":
        return {"code": result.code, "exact": json.loads(result.stdout)["exact"]}
    return {"code": result.code, "sha256": hashlib.sha256(result.stdout).hexdigest()}


def check(argv, result: OpResult, expected: dict) -> OpResult:
    """Mark ``result`` ok or record why it differs from ``expected``."""
    if result.code != expected["code"]:
        result.problem = f"exit code {result.code}, expected {expected['code']}"
    elif argv[0] == "mc":
        try:
            doc = json.loads(result.stdout)
            exact, passed = doc["exact"], doc["pass"]
        except (ValueError, KeyError) as exc:
            result.problem = f"unreadable mc report: {exc!r}"
        else:
            if exact != expected["exact"]:
                result.problem = f"exact {exact!r}, expected {expected['exact']!r}"
            elif passed is not True:
                result.problem = "Monte-Carlo check did not pass"
    elif hashlib.sha256(result.stdout).hexdigest() != expected["sha256"]:
        result.problem = "stdout differs from the reference"
    result.ok = not result.problem
    return result


def run_op(argv, reference: dict, traced: bool = False) -> OpResult:
    expected = reference.get(op_key(argv))
    if expected is None:
        raise BenchError(f"no reference output for op {op_key(argv)!r}")
    result = run_process(traced_command(argv) if traced else cli_command(argv))
    result.argv = tuple(argv)
    return check(argv, result, expected)


def run_pass(ops, reference: dict, traced: bool = False,
             between=None) -> tuple[list[OpResult], float]:
    """Run ``ops`` in order; ``between(result)`` runs after each op, outside the pass wall time."""
    start = time.perf_counter()
    results, aside = [], 0.0
    for argv in ops:
        results.append(run_op(argv, reference, traced))
        if between is not None:
            mark = time.perf_counter()
            between(results[-1])
            aside += time.perf_counter() - mark
    return results, time.perf_counter() - start - aside


def fail_frac(results: list[OpResult]) -> float:
    return sum(not r.ok for r in results) / len(results)


# -- end-to-end metrics -----------------------------------------------------------


def time_setup() -> float:
    """Wall time of one fresh interpreter importing the CLI."""
    result = run_process([sys.executable, "-c", "import degenpoly.cli"])
    if result.code != 0:
        raise BenchError("cannot import degenpoly.cli: " + result.stderr.decode(errors="replace"))
    return result.wall_s


def tail_percentile(walls: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least 10 ops beyond it (nearest rank)."""
    n = len(walls)
    if n < 11:
        return None
    pct = 100 * (n - 10) // n
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(walls)[rank - 1]


def end_to_end(ops, seconds: float, reference: dict) -> tuple[list, dict]:
    time_setup()  # warm-up
    setup: list[float] = []
    results: list[OpResult] = []
    pass_walls: list[float] = []
    op_time = 0.0

    def after_op(result: OpResult) -> None:
        # Spread the setup samples evenly over the run, so that they meet the
        # same mix of host speeds as the ops.
        nonlocal op_time
        op_time += result.wall_s
        while len(setup) < SETUP_REPEATS * min(1.0, op_time / seconds):
            setup.append(time_setup())

    while True:
        done, wall = run_pass(ops, reference, between=after_op)
        results += done
        pass_walls.append(wall)
        # start another pass only if it would end closer to the time limit
        if sum(pass_walls) + statistics.mean(pass_walls) / 2 >= seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(time_setup())
    walls = [r.wall_s for r in results]
    metrics = {
        "setup_s": statistics.median(setup),
        "op_s_p50": statistics.median(walls),
        "run_s": statistics.median(pass_walls),
        "peak_rss_mb": max(r.rss_mb for r in results),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh `import degenpoly.cli` between the ops",
        "op_s_p50": f"median of {len(walls)} ops",
        "run_s": f"median of {len(pass_walls)} passes of {len(ops)} ops",
        "peak_rss_mb": "largest per-op peak RSS (wait4)",
    }
    tail = tail_percentile(walls)
    extra = [f"fail_frac {fail_frac(results):.4g}  (of {len(results)} ops)"]
    extra.append("op_s_tail " + (f"{tail[1]:.4f} s  (p{tail[0]} of {len(walls)} ops)" if tail
                                 else f"omitted: {len(walls)} ops, fewer than 11"))
    return results, {"metrics": metrics, "notes": notes, "extra": extra}


# -- per-layer metrics ---------------------------------------------------------------


def read_trace(result: OpResult) -> dict:
    for line in reversed(result.stderr.decode(errors="replace").splitlines()):
        if line.startswith(TRACE_PREFIX):
            return json.loads(line[len(TRACE_PREFIX):])
    raise BenchError(f"traced op wrote no trace: {op_key(result.argv)}")


def attribution(result: OpResult, trace: dict) -> tuple[float, str]:
    """Unattributed time of one traced op, and a problem if the spans do not add up.

    The layer self times plus the unattributed time make up the op's wall
    time.  That split holds only if the self times add up to the time the
    top-level spans cover (no span counted twice or lost) and fit inside the
    wall time.
    """
    self_s = sum(v for k, v in trace["sums"].items() if k.endswith(".self_s"))
    unattributed = result.wall_s - self_s
    problem = ""
    if trace["open_spans"]:
        problem = f"{trace['open_spans']} spans left open"
    elif abs(self_s - trace["spanned_s"]) > ATTRIBUTION_TOL_S:
        problem = f"self times sum to {self_s:.6f} s but spans cover {trace['spanned_s']:.6f} s"
    elif unattributed < 0:
        problem = f"spans cover {self_s:.6f} s of a {result.wall_s:.6f} s op"
    return unattributed, problem


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(ops, reference: dict, out) -> tuple[list, dict]:
    plain, plain_wall = run_pass(ops, reference)
    traced, traced_wall = run_pass(ops, reference, traced=True)
    sums: dict[str, float] = {}
    maxima: dict[str, float] = {}
    unattributed_total = 0.0
    for result in traced:
        trace = read_trace(result)
        for key, value in trace["sums"].items():
            sums[key] = sums.get(key, 0) + value
        for key, value in trace["max"].items():
            maxima[key] = max(maxima.get(key, 0), value)
        unattributed, problem = attribution(result, trace)
        unattributed_total += unattributed
        if problem:
            result.ok = False
            result.problem = result.problem or "attribution: " + problem
        print(f"attribution {result.wall_s:9.4f} s = spans {result.wall_s - unattributed:9.4f} s"
              f" + unattributed {unattributed:7.4f} s  {problem or 'ok'}  :: {op_key(result.argv)}",
              file=out)
    metrics = {**sums, **maxima}
    for name in ("bernoulli_base", "euler_base", "stirling_first"):
        hits, misses = sums[f"families.{name}.hits"], sums[f"families.{name}.misses"]
        metrics[f"families.{name}.hit_ratio"] = _ratio(hits, hits + misses)
    calls = sums["identities.workspace.calls"]
    metrics["identities.workspace.hit_ratio"] = _ratio(calls - sums["identities.workspace.distinct"], calls)
    metrics["cli.stdout_bytes"] = sum(len(r.stdout) for r in traced)
    metrics.update({
        "trace.untraced_run_s": plain_wall,
        "trace.traced_run_s": traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.unattributed_s": unattributed_total,
    })
    notes = {"trace.overhead_s": "traced run_s minus untraced run_s, one pass each"}
    return plain + traced, {"metrics": metrics, "notes": notes, "extra": []}


# -- reporting ---------------------------------------------------------------------------


def run_record(workload: str, seed: int) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            git_sha = done.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
    }


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise BenchError(f"missing {path.name}") from exc


def benchmark(workload: str, seed: int, seconds: float, trace: bool, out=sys.stdout) -> dict:
    if not (SRC / "degenpoly" / "cli.py").is_file():
        raise BenchError(f"no degenpoly sources under {SRC}")
    spec = load_json(SPEC)
    reference = load_json(REFERENCE)
    print(f"degenpoly benchmark: workload={workload} seed={seed} seconds={seconds} trace={int(trace)}",
          file=out)
    print("run record: " + json.dumps(run_record(workload, seed)), file=out)
    ops = workloads.generate(workload, seed)
    if trace:
        wanted = spec["per_layer"]
        results, found = per_layer(ops, reference, out)
    else:
        wanted = spec["end_to_end"]
        results, found = end_to_end(ops, seconds, reference)
    for r in results:
        if not r.ok:
            print(f"FAILED {op_key(r.argv)}: {r.problem}", file=sys.stderr)
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in found["metrics"]:
            raise BenchError(f"BENCHMARK.json names {name!r}, which this run does not measure")
        value = found["metrics"][name]
        metrics[name] = {"value": value, "unit": entry["unit"]}
        note = found["notes"].get(name, "")
        print(f"{name:40s} {value:>14.6g} {entry['unit']:6s} {note}".rstrip(), file=out)
    for line in found["extra"]:
        print(line, file=out)
    failed = sum(not r.ok for r in results)
    return {"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}


def make_reference(workload: str | None = None) -> int:
    """Record the expected output of every catalogue op of ``workload`` (default: all).

    Entries of the other workloads are kept; entries no workload can emit are dropped.
    """
    names = [workload] if workload else list(workloads.WORKLOADS)
    ops = [argv for name in names for argv in workloads.catalogue(name)]
    with ThreadPoolExecutor(max_workers=2) as pool:  # one op per core
        results = list(pool.map(lambda argv: run_process(cli_command(argv)), ops))
    reference, bad = {}, []
    if workload:
        keep = {op_key(argv) for name in workloads.WORKLOADS if name != workload
                for argv in workloads.catalogue(name)}
        reference = {k: v for k, v in load_json(REFERENCE).items() if k in keep}
    for argv, result in zip(ops, results):
        if result.code != 0 or (argv[0] == "mc" and json.loads(result.stdout)["pass"] is not True):
            bad.append(op_key(argv))
            continue
        reference[op_key(argv)] = expected_of(argv, result)
    if bad:
        print("ops failing at this commit (no reference written):", *bad, sep="\n  ", file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(ops)} ops; {REFERENCE.name} holds {len(reference)} reference outputs")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true",
                        help="record reference.json from the current sources"
                             " (only --workload's ops, if given)")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so run_process kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.make_reference:
            return make_reference(args.workload)
        if args.workload is None:
            parser.error("--workload is required")
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
