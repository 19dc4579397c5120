"""Run one degenpoly CLI invocation with a span around each public layer function.

Usage (with the repository's ``src`` on PYTHONPATH):

    python3 bench/trace_op.py table sheffer-t --n 8 --x x

The CLI's stdout and exit code are passed through unchanged.  After the
command finishes, the last line written to stderr is ``TRACE <json>`` with
the per-layer figures of this one process: calls, self time and counts per
layer, per-identity verification time, the ``lru_cache`` statistics of the
family caches, and the number of distinct ``Workspace`` calls.  Self time is a span's duration minus the time
covered by the spans it encloses, so the self times of all layers add up to
the total time spent inside top-level spans (``spanned_s``).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import degenpoly
from degenpoly import cli, families, identities, poly, randvar, series

MODULES = (degenpoly, poly, series, families, randvar, identities, cli)
TRACE_PREFIX = "TRACE "

# Family caches whose process-wide hit ratio is reported.
LRU_FUNCTIONS = ("bernoulli_base", "euler_base", "stirling_first")

COUNTS = (
    "poly.mul.term_pairs", "poly.mul.terms_out", "poly.add.terms_out",
    "poly.substitute.terms_out", "poly.substitute.total_s", "poly.str.chars",
)

WORKSPACE_METHODS = (
    "exp_of", "falling", "higher_bernoulli", "higher_euler",
    "bernoulli", "euler", "hybrid", "sheffer",
)


def _terms(value) -> int:
    return len(value.terms) if isinstance(value, poly.Poly) else 1


class Tracer:
    """Span bookkeeping shared by every wrapper installed in this process."""

    def __init__(self):
        # One child-time accumulator per open span; slot 0 collects the
        # duration of top-level spans.
        self.stack = [0.0]
        self.layers: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = dict.fromkeys(COUNTS, 0)
        self.identity_s: dict[str, float] = defaultdict(float)
        self.max_terms = 0
        self.workspace_keys: set = set()

    def wrap(self, layer: str, fn, count=None):
        """Return ``fn`` inside a span named ``layer``.

        ``count(args, result, elapsed)`` runs inside the span, so its cost is
        charged to the layer it describes rather than to the caller.
        """
        if layer not in self.layers:
            self.layers.append(layer)
        stack = self.stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(args, result, clock() - start)
                return result
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                self_s[layer] += elapsed - inner
                calls[layer] += 1

        traced.__wrapped__ = fn
        return traced

    # -- counters ---------------------------------------------------------------

    def _count_mul(self, args, result, _elapsed):
        if isinstance(result, poly.Poly):
            self.counts["poly.mul.term_pairs"] += _terms(args[0]) * _terms(args[1])
            self._count_out("poly.mul", result)

    def _count_add(self, _args, result, _elapsed):
        if isinstance(result, poly.Poly):
            self._count_out("poly.add", result)

    def _count_substitute(self, _args, result, elapsed):
        self.counts["poly.substitute.total_s"] += elapsed
        self._count_out("poly.substitute", result)

    def _count_out(self, layer: str, result) -> None:
        n = len(result.terms)
        self.counts[layer + ".terms_out"] += n
        if n > self.max_terms:
            self.max_terms = n

    def _count_str(self, _args, result, _elapsed):
        self.counts["poly.str.chars"] += len(result)

    def _count_identity(self, args, _result, elapsed):
        self.identity_s[args[0]] += elapsed

    def _workspace_counter(self, method: str):
        def count(args, _result, _elapsed):
            self.workspace_keys.add((method, args[1:]))

        return count

    # -- installation -------------------------------------------------------------

    def _replace(self, original, wrapper, namespaces) -> None:
        """Point every name bound to ``original`` at ``wrapper``.

        Class aliases such as ``Poly.__radd__ = __add__`` and names bound by
        ``from .families import ...`` are separate bindings of one object, so
        each namespace is scanned rather than patched by name.
        """
        found = False
        for namespace in namespaces:
            for name, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, name, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{original!r} is bound nowhere")

    def method(self, cls, attr: str, layer: str, count=None) -> None:
        original = vars(cls)[attr]
        self._replace(original, self.wrap(layer, original, count), (cls,))

    def function(self, module, attr: str, layer: str, count=None) -> None:
        original = getattr(module, attr)
        self._replace(original, self.wrap(layer, original, count), MODULES)

    def install(self) -> None:
        Poly, Series = poly.Poly, series.Series
        self.method(Poly, "__mul__", "poly.mul", self._count_mul)  # also __rmul__
        for attr in ("__add__", "__sub__", "__rsub__", "__neg__"):  # __add__ also __radd__
            self.method(Poly, attr, "poly.add", self._count_add)
        self.method(Poly, "substitute", "poly.substitute", self._count_substitute)
        self.method(Poly, "__str__", "poly.str", self._count_str)
        self.method(Series, "__mul__", "series.mul")  # also __rmul__
        for attr in ("reciprocal", "log", "exp", "pow", "pow_int", "egf_coefficient"):
            self.method(Series, attr, "series." + attr)
        for attr in ("degenerate_exp", "falling_factorial", "falling_basis_coefficients",
                     *LRU_FUNCTIONS):
            self.function(families, attr, "families." + attr)
        for attr in ("expect_polynomial", "mc_estimate"):
            self.function(randvar, attr, "randvar." + attr)
        for cls in (randvar.Uniform01, randvar.Bernoulli, randvar.IidSum):
            self.method(cls, "sample_array", "randvar.sample_array")
        self.method(randvar.ShefferSequence, "series", "randvar.ShefferSequence.series")
        self.function(identities, "verify", "identities.verify", self._count_identity)
        for attr in WORKSPACE_METHODS:
            self.method(identities.Workspace, attr, "identities.workspace",
                        self._workspace_counter(attr))
        for attr in ("cmd_table", "cmd_verify", "cmd_mc", "poly_latex"):
            self.function(cli, attr, "cli." + attr)

    def report(self) -> dict:
        """Figures of this process; every entry of ``sums`` adds up across ops."""
        sums = dict(self.counts)
        for layer in self.layers:
            sums[layer + ".calls"] = self.calls[layer]
            sums[layer + ".self_s"] = self.self_s[layer]
        for case_id in identities.registered_ids():
            sums[f"identities.verify.{case_id}.s"] = self.identity_s[case_id]
        for name in LRU_FUNCTIONS:
            info = getattr(families, name).__wrapped__.cache_info()
            sums[f"families.{name}.hits"] = info.hits
            sums[f"families.{name}.misses"] = info.misses
        sums["identities.workspace.distinct"] = len(self.workspace_keys)
        return {
            "sums": sums,
            "max": {"poly.max_terms": self.max_terms},
            "spanned_s": self.stack[0],
            "open_spans": len(self.stack) - 1,
        }


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.report()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
