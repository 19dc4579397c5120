"""Command-line surface: family tables, identity verification, Monte-Carlo checks.

Configuration precedence is flags > environment variables (DEGENPOLY_*) >
config file (key=value lines) > built-in defaults.  Rational numbers are
always serialized as num/den strings, never floats, so emitted JSON
round-trips exactly.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from typing import Sequence

from .poly import DegreeLimitExceeded, Poly, VAR_NAMES, ZERO, X
from .series import OrderExceeded, Series
from . import families
from .families import FamilyId
from . import identities
from .randvar import (
    Bernoulli,
    IidSum,
    MomentProvider,
    ShefferSequence,
    Uniform01,
    UnsamplableProvider,
    Zero,
    mc_estimate,
)

SCHEMA_VERSION = "1"
ENV_PREFIX = "DEGENPOLY_"
FORMATS = ("plain", "json", "csv", "latex")

DEFAULTS = {
    "n": None,
    "format": "plain",
    "samples": 100_000,
    "seed": 42,
}
_DEFAULT_TABLE_N = 10
_DEFAULT_VERIFY_N = 8


class BadParams(Exception):
    """Invalid command parameters (reported with usage text, exit code 2)."""


# -- configuration layering ----------------------------------------------------


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise BadParams(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in DEFAULTS:
                    raise BadParams(
                        f"{path}:{lineno}: unknown key {key!r}; known keys are {', '.join(DEFAULTS)}"
                    )
                values[key] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise BadParams(f"cannot read config file {path}: {exc}") from exc
    return values


def _resolve(key: str, flag_value, file_values: dict[str, str], parse=str):
    if flag_value is not None:
        return parse(flag_value)
    env = os.environ.get(ENV_PREFIX + key.upper())
    if env is not None:
        return parse(env)
    if key in file_values:
        return parse(file_values[key])
    return DEFAULTS[key]


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise BadParams(f"expected an integer, got {text!r}") from exc


def _parse_format(text: str) -> str:
    if text not in FORMATS:
        raise BadParams(f"unknown format {text!r}; pick one of {', '.join(FORMATS)}")
    return text


def resolve_common(args) -> dict:
    """Resolve the keys the command's parser defines: only ``mc`` has samples and seed."""
    file_values = _read_config_file(args.config) if args.config else {}
    return {
        key: _resolve(key, getattr(args, key), file_values,
                      _parse_format if key == "format" else _parse_int)
        for key in DEFAULTS
        if hasattr(args, key)
    }


# -- shared parsing helpers -------------------------------------------------------


def _parse_poly(text: str, what: str) -> Poly:
    try:
        return Poly.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParams(f"cannot parse {what} value {text!r}: {exc}") from exc


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParams(f"{what} must be a rational like 3/4, got {text!r}") from exc


def parse_provider(spec: str) -> MomentProvider:
    """Provider specs: uniform01 | zero | ber:<p> | iid:<base spec>:<m>."""
    if spec == "uniform01":
        return Uniform01()
    if spec == "zero":
        return Zero()
    if spec.startswith("ber:"):
        value = spec[4:]
        if value == "p":
            return Bernoulli(Poly.var("p"))
        return Bernoulli(_parse_rational(value, "Bernoulli probability"))
    if spec.startswith("iid:"):
        body, _, count = spec[4:].rpartition(":")
        if not body:
            raise BadParams(f"iid spec needs iid:<base>:<m>, got {spec!r}")
        copies = _parse_int(count)
        if copies < 1:
            raise BadParams(f"iid spec needs at least one copy, got {spec!r}")
        return IidSum(parse_provider(body), copies)
    raise BadParams(f"unknown provider spec {spec!r}")


# -- rendering -------------------------------------------------------------------


def _latex_fraction(value: Fraction) -> str:
    sign = "-" if value < 0 else ""
    mag = abs(value)
    if mag.denominator == 1:
        return f"{sign}{mag.numerator}"
    return f"{sign}\\frac{{{mag.numerator}}}{{{mag.denominator}}}"


_LATEX_VARS = {"λ": "\\lambda"}


def _latex_monomial(exps: tuple[int, ...]) -> str:
    factors = []
    for i, e in enumerate(exps):
        if not e:
            continue
        name = _LATEX_VARS.get(VAR_NAMES[i], VAR_NAMES[i])
        factors.append(name if e == 1 else f"{name}^{{{e}}}")
    return " ".join(factors)


def poly_latex(p: Poly) -> str:
    """Render in canonical term order with \\frac coefficients."""
    return p.render(_latex_fraction, _latex_monomial, " ")


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _render_rows(rows: list[dict], columns: list[str], fmt: str, meta: dict) -> str:
    if fmt == "json":
        doc = {"version": SCHEMA_VERSION, **meta, "rows": rows}
        return json.dumps(doc, ensure_ascii=False, indent=2)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])
        return buffer.getvalue()
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

_SHEFFER_Y = "sheffer-y"
_FAMILY_NAMES = [f.value for f in FamilyId] + [_SHEFFER_Y]

# the optional table flags, by argparse dest, and the ones each family reads
_TABLE_FLAGS = {"lam": "--lambda", "x": "--x", "p": "--p", "a": "--a", "b": "--b",
                "provider": "--provider"}
_FAMILY_FLAGS = {
    FamilyId.FALLING_LAMBDA.value: {"lam", "x"},
    FamilyId.DEG_BERNOULLI.value: {"lam", "x"},
    FamilyId.DEG_EULER.value: {"lam", "x"},
    FamilyId.HIGHER_BERNOULLI.value: {"lam", "x", "a"},
    FamilyId.HIGHER_EULER.value: {"lam", "x", "b"},
    FamilyId.SHEFFER_T.value: {"lam", "x", "a", "b"},
    FamilyId.STIRLING1.value: set(),
    _SHEFFER_Y: {"lam", "x", "p", "provider"},
}


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


def _family_series(args, at: Poly, order: int, meta_params: dict[str, str]) -> Series:
    """The generating series of a series-built family, truncated at ``order``."""
    family = args.family
    if family == FamilyId.FALLING_LAMBDA.value:
        return families.degenerate_exp(at, order)
    if family == FamilyId.DEG_BERNOULLI.value:
        return families.bernoulli_series(at, order)
    if family == FamilyId.DEG_EULER.value:
        return families.euler_series(at, order)
    if family == FamilyId.HIGHER_BERNOULLI.value:
        a = _order_param(args.a, "a", meta_params)
        return families.higher_bernoulli_series(a, at, order)
    if family == FamilyId.HIGHER_EULER.value:
        b = _order_param(args.b, "b", meta_params)
        return families.higher_euler_series(b, at, order)
    if family == FamilyId.SHEFFER_T.value:
        a = _order_param(args.a, "a", meta_params)
        b = _order_param(args.b, "b", meta_params)
        return families.sheffer_type_series(a, b, at, order)
    if family == _SHEFFER_Y:
        if args.provider is None:
            raise BadParams("family sheffer-y needs --provider")
        provider = parse_provider(args.provider)
        if args.p is not None and not _has_symbolic_p(provider):
            raise BadParams(f"sheffer-y with provider {args.provider} takes no --p")
        meta_params["provider"] = args.provider
        return ShefferSequence(provider, order).series(at)
    raise BadParams(f"unknown family {family!r}; pick one of {', '.join(_FAMILY_NAMES)}")


def _family_rows(args, config) -> tuple[list[dict], dict]:
    family = args.family
    n_max = config["n"] if config["n"] is not None else _DEFAULT_TABLE_N
    if n_max < 0:
        raise BadParams("--n must be non-negative")

    _reject_unread(args, _FAMILY_FLAGS[family], _TABLE_FLAGS, family)
    pins: dict[str, Poly] = {}
    meta_params: dict[str, str] = {}
    at = X if family == FamilyId.FALLING_LAMBDA.value else ZERO
    # --x is the evaluation argument, never a pin, but its meta entry sits between λ and p
    for flag, var in (("lam", "λ"), ("x", "x"), ("p", "p")):
        raw = getattr(args, flag)
        if raw is not None:
            meta_params[var] = raw
            if var == "x":
                at = _parse_poly(raw, var)
            else:
                pins[var] = _parse_poly(raw, var)

    # only json and latex print the LaTeX column
    with_latex = config["format"] in ("json", "latex")
    rows: list[dict] = []
    if family == FamilyId.STIRLING1.value:
        for n in range(n_max + 1):
            for k in range(n + 1):
                value = families.stirling_first(n, k)
                rows.append({"n": n, "k": k, "value": str(value)})
                if with_latex:
                    rows[-1]["latex"] = _latex_fraction(value)
    else:
        # coefficient n of a series depends only on coefficients <= n: order n_max suffices
        series = _family_series(args, at, n_max, meta_params)
        for n, value in enumerate(series.egf_coefficients(n_max)):
            value = value.substitute(pins) if pins else value
            rows.append({"n": n, "value": str(value)})
            if with_latex:
                rows[-1]["latex"] = poly_latex(value)
    meta = {"command": "table", "family": family, "n_max": n_max, "params": meta_params}
    return rows, meta


def cmd_table(args) -> int:
    config = resolve_common(args)
    rows, meta = _family_rows(args, config)
    columns = ["n", "k", "value"] if args.family == FamilyId.STIRLING1.value else ["n", "value"]
    _emit(_render_rows(rows, columns, config["format"], meta))
    return 0


# -- verify command ----------------------------------------------------------------


def cmd_verify(args) -> int:
    config = resolve_common(args)
    max_n = config["n"] if config["n"] is not None else _DEFAULT_VERIFY_N
    if max_n < 0:
        raise BadParams("--n must be non-negative")
    injected = None
    if args.inject_fault:
        injected = identities.broken_case()
        identities.register(injected)
    try:
        ids = identities.select_ids(args.patterns if args.patterns else None)
        reports = identities.verify_all(ids, max_n=max_n)
    finally:
        if injected is not None:
            identities.unregister(injected.id)

    fmt = config["format"]
    if fmt == "json":
        cases = []
        for r in reports:
            mismatch = None
            if r.mismatch is not None:
                mismatch = {"n": r.mismatch.n, "diff": str(r.mismatch.diff)}
            cases.append({"id": r.id, "maxN": r.max_n, "equal": r.equal, "mismatch": mismatch})
        _emit(json.dumps({"version": SCHEMA_VERSION, "cases": cases}, ensure_ascii=False, indent=2))
    elif fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
        writer.writerow(["id", "maxN", "equal", "mismatch_n", "diff"])
        for r in reports:
            if r.mismatch is None:
                writer.writerow([r.id, r.max_n, "true", "", ""])
            else:
                writer.writerow([r.id, r.max_n, "false", r.mismatch.n, str(r.mismatch.diff)])
        _emit(buffer.getvalue())
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


def cmd_mc(args) -> int:
    _reject_unread(args, _MC_READS[args.identity], _MC_FLAGS, args.identity)
    config = resolve_common(args)
    n = config["n"] if config["n"] is not None else 1
    if n < 0:
        raise BadParams("--n must be non-negative")
    if args.lam is None or args.x is None:
        raise BadParams("mc needs explicit --lambda and --x rationals")
    lam_v = _parse_rational(args.lam, "lambda")
    x_v = _parse_rational(args.x, "x")
    samples = config["samples"]
    seed = config["seed"]
    if samples < 1:
        raise BadParams("--samples must be positive")
    if seed < 0:
        raise BadParams("--seed must be non-negative")
    order = max(n, 1)

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
        target = ShefferSequence(provider, order).polynomial(n, X + Poly.var("y"))
        exact = families.falling_factorial(X, n).evaluate(point)
        meta["provider"] = provider.label()
    else:  # thm3.7
        m = args.m if args.m is not None else 2
        l = args.l if args.l is not None else 1
        if not 1 <= l <= m:
            raise BadParams("thm3.7 needs integers m >= l >= 1")
        outer = IidSum(Bernoulli(Fraction(1, 2)), m)
        provider = IidSum(Bernoulli(Fraction(1, 2)), l)
        target = ShefferSequence(outer, order).polynomial(n, X + Poly.var("y"))
        exact = families.higher_euler(n, m - l, X).evaluate(point)
        meta["provider"] = provider.label()
        meta["m"] = m
        meta["l"] = l

    result = mc_estimate(target, provider, point, samples, seed)
    exact_float = float(exact)
    if result.std_error > 0:
        z = (result.estimate - exact_float) / result.std_error
    else:
        z = 0.0 if result.estimate == exact_float else float("inf")
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
    fmt = config["format"]
    if fmt == "json":
        _emit(json.dumps({"version": SCHEMA_VERSION, **report}, ensure_ascii=False, indent=2))
    elif fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
        keys = list(report)
        writer.writerow(keys)
        writer.writerow([report[k] for k in keys])
        _emit(buffer.getvalue())
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

    def common(p: argparse.ArgumentParser, with_mc: bool = False):
        p.add_argument("--n", type=int, default=None, help="largest index n")
        p.add_argument("--format", default=None, help="plain, json, csv or latex")
        p.add_argument("--config", default=None, help="key=value config file")
        if with_mc:
            p.add_argument("--samples", type=int, default=None)
            p.add_argument("--seed", type=int, default=None)

    table = sub.add_parser("table", help="emit a family value table")
    table.add_argument("family", choices=_FAMILY_NAMES)
    common(table)
    table.add_argument("--lambda", dest="lam", default=None, help="pin λ (rational or polynomial)")
    table.add_argument("--x", default=None, help="evaluation argument (rational, 0, or x)")
    table.add_argument("--p", default=None, help="pin p (rational)")
    table.add_argument("--a", default=None, help="first order parameter (rational or a)")
    table.add_argument("--b", default=None, help="second order parameter (rational or b)")
    table.add_argument("--provider", default=None, help="provider spec for sheffer-y")
    table.set_defaults(func=cmd_table)

    verify = sub.add_parser("verify", help="check registered identities")
    verify.add_argument("patterns", nargs="*", help="identity ids or globs (default: all)")
    common(verify)
    verify.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    verify.set_defaults(func=cmd_verify)

    mc = sub.add_parser("mc", help="Monte-Carlo spot check of an expectation identity")
    mc.add_argument("identity", choices=["thm3.1", "thm3.7"])
    common(mc, with_mc=True)
    mc.add_argument("--provider", default=None,
                    help="sampling provider (thm3.1; default uniform01)")
    mc.add_argument("--lambda", dest="lam", default=None, help="rational value for λ")
    mc.add_argument("--x", default=None, help="rational value for x")
    mc.add_argument("--m", type=int, default=None, help="outer copy count (thm3.7)")
    mc.add_argument("--l", type=int, default=None, help="averaged copy count (thm3.7)")
    mc.set_defaults(func=cmd_mc)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BadParams, identities.UnknownIdentity, UnsamplableProvider, OrderExceeded,
            DegreeLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"run 'degenpoly {args.command} --help' for usage", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
