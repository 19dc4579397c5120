"""Command-line surface: family tables, identity verification, Monte-Carlo checks.

Each parameter is set by its flag alone; the defaults are argparse's (``--n``
10 for ``table``, 8 for ``verify``, 1 for ``mc``; ``--format plain``;
``--samples`` 100000 and ``--seed`` 42).  Rational numbers are always
serialized as num/den strings, never floats, so emitted JSON round-trips
exactly, and exact values print in full however many digits they have.

Every number or polynomial in a flag is read in one grammar, ``Poly.parse``'s,
through ``_parse_poly``, with at most MAX_LITERAL_DIGITS digits per number.  A
rational (``mc --lambda``/``--x``, ``table --p``, ``ber:<p>``) is a constant there,
and a count (``--n``, ``--samples``, ``--seed``, ``--m``, ``--l``, an ``iid:`` copy
count) a whole number written as it prints, with a least value (``_parse_count``).

Exit codes: 0 success, 1 verification or Monte-Carlo failure, 2 usage error, which
includes an ``mc`` result past the float range and an ``--n`` from DEGREE_LIMIT − 1 on
(``check_common``: one bound for every command but ``table stirling1``).

``run`` is the process entry (the ``degenpoly`` script and ``python -m
degenpoly.cli``): it calls ``main`` and then freezes the objects the process
holds, so the interpreter's final collection at exit does not walk them;
output flushing, ``atexit`` handlers and module teardown still run.  ``main``
freezes nothing, so tests and library callers may call it in process.  Only
``verify`` imports ``identities``, the registry; ``table`` and ``mc`` never
load it.  ``table`` and the ``mc`` target read each family from a fresh
``families.Workspace``, the recipe whose values ``verify`` proves.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import re
import sys
from fractions import Fraction
from typing import Sequence

from .poly import DEGREE_LIMIT, DegreeLimitExceeded, Poly, VAR_NAMES, ZERO, X, Y
from .series import OrderExceeded, Series
from . import families
from .randvar import (
    Bernoulli,
    IidSum,
    MomentProvider,
    Uniform01,
    UnsamplableProvider,
    Zero,
    mc_estimate,
)

SCHEMA_VERSION = "1"
FORMATS = ("plain", "json", "csv", "latex")


class BadParams(Exception):
    """Invalid command parameters (reported with usage text, exit code 2)."""


def check_common(args, bounded: bool = True) -> int:
    """Check a known ``--format`` and the count ``--n``, and return n.

    A bounded command's products at n reach exponent n + 1 at most (thm3.11-E reads index
    n + 1), so ``--n`` stays below DEGREE_LIMIT − 1: past it the kernel could refuse a
    product only after hours of smaller ones.
    """
    if args.format not in FORMATS:
        raise BadParams(f"unknown format {args.format!r}; pick one of {', '.join(FORMATS)}")
    n = _parse_count(args.n, "--n", 0)
    if bounded and n + 1 >= DEGREE_LIMIT:
        raise BadParams(f"--n must be below {DEGREE_LIMIT - 1}, "
                        f"so exponents stay below {DEGREE_LIMIT}")
    return n


# -- shared parsing helpers -------------------------------------------------------


# the most digits of one number in a flag literal: the interpreter's default limit on int
# text (Python 3.10.7 on), stated here because `main` lifts that limit for the whole command
MAX_LITERAL_DIGITS = 4300
_TOO_MANY_DIGITS = re.compile(rf"\d{{{MAX_LITERAL_DIGITS + 1}}}")


def _parse_poly(text: str, what: str) -> Poly:
    """A flag literal in ``Poly.parse``'s grammar, no number in it over MAX_LITERAL_DIGITS."""
    try:
        if _TOO_MANY_DIGITS.search(text):
            raise ValueError(f"a number has more than {MAX_LITERAL_DIGITS} digits")
        return Poly.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParams(f"cannot parse {what} value {text!r}: {exc}") from exc


def _parse_rational(text: str, what: str) -> Fraction:
    """A flag literal that ``_parse_poly`` reads as a constant, such as ``-3/4``."""
    value = _parse_poly(text, what)
    if not value.is_constant():
        raise BadParams(f"{what} must be a rational like 3/4, got {text!r}")
    return value.constant_value()


def _parse_count(text: str, what: str, least: int) -> int:
    """A whole number that ``_parse_poly`` reads and prints back as ``text``, at least ``least``."""
    value = _parse_poly(text, what)
    if str(value) != text or not value.is_constant() or "/" in text:
        raise BadParams(f"cannot parse {what} value {text!r}: a count is written as it prints")
    count = value.constant_value().numerator
    if count < least:
        raise BadParams(f"{what} must be at least {least}, got {text}")
    return count


def _parse_probability(text: str, what: str) -> Fraction:
    value = _parse_rational(text, what)
    if not 0 <= value <= 1:
        raise BadParams(f"Bernoulli probability must lie in [0, 1], got {text!r}")
    return value


# a series read recurses through each nested i.i.d. sum, so the nesting is bounded
MAX_IID_NESTING = 32


def parse_provider(spec: str) -> MomentProvider:
    """Provider specs: uniform01 | zero | ber:<p> | iid:<base spec>:<m>.

    ``iid:`` nests at most MAX_IID_NESTING deep; a deeper spec is refused before it is parsed.
    """
    if spec.startswith("iid:" * (MAX_IID_NESTING + 1)):
        raise BadParams(f"iid specs nest at most {MAX_IID_NESTING} deep")
    if spec == "uniform01":
        return Uniform01()
    if spec == "zero":
        return Zero()
    if spec.startswith("ber:"):
        value = spec[4:]
        if value == "p":
            return Bernoulli(Poly.var("p"))
        return Bernoulli(_parse_probability(value, "Bernoulli probability"))
    if spec.startswith("iid:"):
        body, _, count = spec[4:].rpartition(":")
        if not body:
            raise BadParams(f"iid spec needs iid:<base>:<m>, got {spec!r}")
        return IidSum(parse_provider(body), _parse_count(count, "iid copy count", 1))
    raise BadParams(f"unknown provider spec {spec!r}")


# -- rendering -------------------------------------------------------------------


@contextlib.contextmanager
def _exact_text():
    """Lift the interpreter's limit on the digits of an int made text, and restore it after.

    ``main`` runs each command inside, so exact values print in full; flag literals keep
    their own bound, MAX_LITERAL_DIGITS.  Python before 3.10.7 has no limit.
    """
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    saved = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(saved)


def _latex_fraction(num: int, den: int) -> str:
    return f"\\frac{{{num}}}{{{den}}}" if den != 1 else str(num)


def poly_latex(p: Poly) -> str:
    """Render in canonical term order with \\frac coefficients and braced exponents."""
    return p.render(_latex_fraction, ("\\lambda", *VAR_NAMES[1:]), "{}^{{{}}}", " ")


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _csv(header: list[str], rows: list[list]) -> str:
    """A header line and one line per row; every non-number is quoted."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _render_rows(rows: list[dict], columns: list[str], fmt: str, meta: dict) -> str:
    if fmt == "json":
        doc = {"version": SCHEMA_VERSION, **meta, "rows": rows}
        return json.dumps(doc, ensure_ascii=False, indent=2)
    if fmt == "csv":
        return _csv(columns, [[row[c] for c in columns] for row in rows])
    if fmt == "latex":
        lines = ["\\begin{tabular}{" + "r" * (len(columns) - 1) + "l}", "\\hline"]
        lines.append(" & ".join(columns) + " \\\\")
        lines.append("\\hline")
        for row in rows:
            cells = [str(row[c]) for c in columns[:-1]]
            cells.append(f"${row['latex']}$")
            lines.append(" & ".join(cells) + " \\\\")
        lines.append("\\hline")
        lines.append("\\end{tabular}")
        return "\n".join(lines)
    widths = [max(len(c), *(len(str(r[c])) for r in rows)) if rows else len(c) for c in columns]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(str(row[c]).ljust(w) for c, w in zip(columns, widths)).rstrip())
    return "\n".join(lines)


# -- table command ----------------------------------------------------------------

_STIRLING1 = "stirling1"
_SHEFFER_Y = "sheffer-y"

# the optional table flags, by argparse dest, and the ones each family reads
_TABLE_FLAGS = {"lam": "--lambda", "x": "--x", "p": "--p", "a": "--a", "b": "--b",
                "provider": "--provider"}
# the orders (a, b) of the hybrid T^{(a,b)} that each series-built family is; an order
# named "a" or "b" is read from its flag, and is symbolic when the flag is absent
_HYBRID_ORDERS = {
    "falling-lambda": (0, 0),
    "deg-bernoulli": (1, 0),
    "deg-euler": (0, 1),
    "higher-bernoulli": ("a", 0),
    "higher-euler": (0, "b"),
    "sheffer-t": ("a", "b"),
}
_FAMILY_FLAGS = {
    **{family: {"lam", "x", *(e for e in orders if isinstance(e, str))}
       for family, orders in _HYBRID_ORDERS.items()},
    _STIRLING1: set(),
    _SHEFFER_Y: {"lam", "x", "p", "provider"},
}
# the `table` choices, in --help order
_FAMILY_NAMES = list(_FAMILY_FLAGS)


def _reject_unread(args, reads: set[str], flags: dict[str, str], target: str) -> None:
    """Exit 2 on a flag that ``target`` never reads, rather than echo or drop it silently."""
    unread = [flag for dest, flag in flags.items()
              if dest not in reads and getattr(args, dest) is not None]
    if unread:
        raise BadParams(f"{target} takes no {', '.join(unread)}")


def _order_param(raw: str | None, name: str, meta_params: dict[str, str]) -> Poly:
    """An order parameter from its flag, symbolic when the flag is absent."""
    value = _parse_poly(raw, name) if raw is not None else Poly.var(name)
    meta_params[name] = str(value)
    return value


def _has_symbolic_p(provider: MomentProvider) -> bool:
    """Whether the provider spec holds the symbolic p: ``ber:p``, or an ``iid:`` sum of it."""
    if isinstance(provider, IidSum):
        return _has_symbolic_p(provider.base)
    return isinstance(provider, Bernoulli) and "p" in provider.p.variables()


def _family_series(args, at: Poly, meta_params: dict[str, str]) -> Series:
    """The generating series of a series-built family, from a fresh Workspace."""
    if args.family == _SHEFFER_Y:
        if args.provider is None:
            raise BadParams("family sheffer-y needs --provider")
        provider = parse_provider(args.provider)
        if args.p is not None and not _has_symbolic_p(provider):
            raise BadParams(f"sheffer-y with provider {args.provider} takes no --p")
        meta_params["provider"] = args.provider
        return families.Workspace().sheffer(provider, at)
    a, b = [_order_param(getattr(args, e), e, meta_params) if isinstance(e, str) else e
            for e in _HYBRID_ORDERS[args.family]]
    return families.Workspace().hybrid(a, b, at)


def _family_rows(args, n_max: int) -> tuple[list[dict], dict]:
    family = args.family
    _reject_unread(args, _FAMILY_FLAGS[family], _TABLE_FLAGS, family)
    pins: dict[str, Poly] = {}
    meta_params: dict[str, str] = {}
    at = X if family == "falling-lambda" else ZERO
    # --x is the evaluation argument, never a pin, but its meta entry sits between λ and p
    for flag, var in (("lam", "λ"), ("x", "x"), ("p", "p")):
        raw = getattr(args, flag)
        if raw is not None:
            meta_params[var] = raw
            if var == "x":
                at = _parse_poly(raw, var)
            elif var == "p":  # the probability of ber:p
                pins[var] = Poly.const(_parse_probability(raw, var))
            else:
                pins[var] = _parse_poly(raw, var)

    # only json and latex print the LaTeX column
    with_latex = args.format in ("json", "latex")
    rows: list[dict] = []
    if family == _STIRLING1:
        for n in range(n_max + 1):
            for k in range(n + 1):
                value = families.stirling_first(n, k)
                rows.append({"n": n, "k": k, "value": str(value)})
                if with_latex:
                    rows[-1]["latex"] = poly_latex(Poly.const(value))
    else:
        for n, value in enumerate(_family_series(args, at, meta_params).egf_coefficients(n_max)):
            value = value.substitute(pins) if pins else value
            rows.append({"n": n, "value": str(value)})
            if with_latex:
                rows[-1]["latex"] = poly_latex(value)
    meta = {"command": "table", "family": family, "n_max": n_max, "params": meta_params}
    return rows, meta


def cmd_table(args) -> int:
    rows, meta = _family_rows(args, check_common(args, bounded=args.family != _STIRLING1))
    columns = ["n", "k", "value"] if args.family == _STIRLING1 else ["n", "value"]
    _emit(_render_rows(rows, columns, args.format, meta))
    return 0


# -- verify command ----------------------------------------------------------------


def cmd_verify(args) -> int:
    from . import identities

    n = check_common(args)
    extra = [identities.broken_case()] if args.inject_fault else []
    try:
        reports = identities.verify_all(args.patterns or None, max_n=n, extra=extra)
    except identities.UnknownIdentity as exc:
        raise BadParams(str(exc)) from exc
    if not reports:
        raise BadParams(f"no identity matches {' '.join(args.patterns)}")

    fmt = args.format
    if fmt == "json":
        cases = []
        for r in reports:
            mismatch = None
            if r.mismatch is not None:
                mismatch = {"n": r.mismatch.n, "diff": str(r.mismatch.diff)}
            cases.append({"id": r.id, "maxN": r.max_n, "equal": r.equal, "mismatch": mismatch})
        _emit(json.dumps({"version": SCHEMA_VERSION, "cases": cases}, ensure_ascii=False, indent=2))
    elif fmt == "csv":
        rows = [[r.id, r.max_n, "false", r.mismatch.n, str(r.mismatch.diff)] if r.mismatch
                else [r.id, r.max_n, "true", "", ""] for r in reports]
        _emit(_csv(["id", "maxN", "equal", "mismatch_n", "diff"], rows))
    elif fmt == "latex":
        lines = ["\\begin{tabular}{ll}", "\\hline", "id & status \\\\", "\\hline"]
        for r in reports:
            status = "ok" if r.equal else f"mismatch at $n={r.mismatch.n}$"
            lines.append(f"\\verb|{r.id}| & {status} \\\\")
        lines += ["\\hline", "\\end{tabular}"]
        _emit("\n".join(lines))
    else:
        for r in reports:
            if r.equal:
                _emit(f"{r.id}: ok (n <= {r.max_n})")
            else:
                where = f" [{r.mismatch.instance}]" if r.mismatch.instance else ""
                _emit(f"{r.id}: MISMATCH at n={r.mismatch.n}{where} diff = {r.mismatch.diff}")
        equal_count = sum(r.equal for r in reports)
        _emit(f"{equal_count}/{len(reports)} identities verified")
    return 0 if all(r.equal for r in reports) else 1


# -- mc command --------------------------------------------------------------------


_MC_FLAGS = {"provider": "--provider", "m": "--m", "l": "--l"}
_MC_READS = {"thm3.1": {"provider"}, "thm3.7": {"m", "l"}}
# the sampler builds one generator per uniform stream of the provider (about 1.5 KB and 40 µs
# each) in every part before its first draw, so the stream count is bounded: about 6 MB a part
MC_MAX_STREAMS = 4096


def cmd_mc(args) -> int:
    _reject_unread(args, _MC_READS[args.identity], _MC_FLAGS, args.identity)
    n = check_common(args)
    if args.lam is None or args.x is None:
        raise BadParams("mc needs explicit --lambda and --x rationals")
    lam_v = _parse_rational(args.lam, "lambda")
    x_v = _parse_rational(args.x, "x")
    samples = _parse_count(args.samples, "--samples", 2)  # two draws give a standard error
    seed = _parse_count(args.seed, "--seed", 0)

    point = {"λ": lam_v, "x": x_v}
    meta: dict = {
        "command": "mc",
        "identity": args.identity,
        "n": n,
        "lambda": str(lam_v),
        "x": str(x_v),
        "samples": samples,
        "seed": seed,
    }
    if args.identity == "thm3.1":
        provider = parse_provider(args.provider if args.provider is not None else "uniform01")
        outer = provider
        meta["provider"] = provider.label()
    else:  # thm3.7
        l = _parse_count("1" if args.l is None else args.l, "--l", 1)
        m = _parse_count("2" if args.m is None else args.m, "--m", l)
        outer = IidSum(Bernoulli(Fraction(1, 2)), m)
        provider = IidSum(Bernoulli(Fraction(1, 2)), l)
        meta.update(provider=provider.label(), m=m, l=l)
    # refused before the target is built, which alone ran past 20 s at --n 150
    if provider.columns > MC_MAX_STREAMS:
        raise BadParams(f"mc samples at most {MC_MAX_STREAMS} uniform streams; "
                        f"{provider.label()} needs {provider.columns}")
    # the draws of a point mass are all one float (see below), though their float mean can be off
    # by rounding, so that std_error is not 0
    if n and provider.is_point_mass():
        raise BadParams(f"mc draws carry no information: {provider.label()} takes one value only")
    target = families.Workspace().sheffer(outer, X + Y).egf_coefficient(n)
    exact = (families.falling_factorial(X, n) if args.identity == "thm3.1"
             else families.higher_euler(n, m - l, X)).evaluate(point)
    try:
        result = mc_estimate(target, provider, point, samples, seed)
        exact_float = float(exact)
    except OverflowError as exc:  # the pinned target or the exact value passes the float range
        raise BadParams(f"mc needs values in the float range: {exc}") from exc
    if result.std_error == 0:
        # from n = 1 on the target is monic in y, so draws that all give one float say nothing
        if n:
            raise BadParams("mc draws carry no information: every sampled value of the target "
                            "is the same float, so std_error is 0")
        z = 0.0 if result.estimate == exact_float else float("inf")
    else:  # a nan spread gives a nan z, which never passes
        z = (result.estimate - exact_float) / result.std_error
    passed = abs(z) <= 3.0

    report = {
        **meta,
        "exact": f"{exact.numerator}/{exact.denominator}",
        "exact_float": exact_float,
        "estimate": result.estimate,
        "std_error": result.std_error,
        "z": z,
        "pass": passed,
    }
    fmt = args.format
    if fmt == "json":
        _emit(json.dumps({"version": SCHEMA_VERSION, **report}, ensure_ascii=False, indent=2))
    elif fmt == "csv":
        _emit(_csv(list(report), [list(report.values())]))
    elif fmt == "latex":
        lines = ["\\begin{tabular}{ll}", "\\hline"]
        for key, value in report.items():
            lines.append(f"{key} & {value} \\\\")
        lines += ["\\hline", "\\end{tabular}"]
        _emit("\n".join(lines))
    else:
        for key, value in report.items():
            _emit(f"{key}: {value}")
    return 0 if passed else 1


# -- argument parsing -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenpoly",
        description="Exact tables and identity checks for degenerate polynomial families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, n: str, with_mc: bool = False):
        p.add_argument("--n", default=n, help="largest index n")
        p.add_argument("--format", default="plain", help="plain, json, csv or latex")
        if with_mc:
            p.add_argument("--samples", default="100000")
            p.add_argument("--seed", default="42")

    table = sub.add_parser("table", help="emit a family value table")
    table.add_argument("family", choices=_FAMILY_NAMES)
    common(table, n="10")
    table.add_argument("--lambda", dest="lam", default=None, help="pin λ (rational or polynomial)")
    table.add_argument("--x", default=None, help="evaluation argument (rational, 0, or x)")
    table.add_argument("--p", default=None, help="pin p (rational)")
    table.add_argument("--a", default=None, help="first order parameter (rational or a)")
    table.add_argument("--b", default=None, help="second order parameter (rational or b)")
    table.add_argument("--provider", default=None, help="provider spec for sheffer-y")
    table.set_defaults(func=cmd_table)

    verify = sub.add_parser("verify", help="check registered identities")
    verify.add_argument("patterns", nargs="*", help="identity ids or globs (default: all)")
    common(verify, n="8")
    verify.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    verify.set_defaults(func=cmd_verify)

    mc = sub.add_parser("mc", help="Monte-Carlo spot check of an expectation identity")
    mc.add_argument("identity", choices=["thm3.1", "thm3.7"])
    common(mc, n="1", with_mc=True)
    mc.add_argument("--provider", default=None,
                    help="sampling provider (thm3.1; default uniform01)")
    mc.add_argument("--lambda", dest="lam", default=None, help="rational value for λ")
    mc.add_argument("--x", default=None, help="rational value for x")
    mc.add_argument("--m", default=None, help="outer copy count (thm3.7)")
    mc.add_argument("--l", default=None, help="averaged copy count (thm3.7)")
    mc.set_defaults(func=cmd_mc)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _exact_text():
            return args.func(args)
    except (BadParams, UnsamplableProvider, OrderExceeded, DegreeLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"run 'degenpoly {args.command} --help' for usage", file=sys.stderr)
        return 2


def run() -> int:
    """Process entry: ``main``, then no collection walk over what is left at exit."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
