import contextlib
import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import degenpoly
from degenpoly import (
    DEGREE_LIMIT, Poly, Series, bernoulli_polynomials, euler_polynomials, families,
    registered_ids, sheffer_type, X,
)
from degenpoly.cli import (
    FORMATS, MAX_IID_NESTING, MAX_LITERAL_DIGITS, MC_MAX_STREAMS, main, parse_provider, poly_latex,
    BadParams, _FAMILY_NAMES,
)
from degenpoly.randvar import CHUNK, Bernoulli, IidSum, McEstimate, Uniform01, Zero
from degenpoly import LAM


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_bernoulli_golden(capsys):
    code, out, _ = run(capsys, "table", "deg-bernoulli", "--n", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["n", "value"]
    values = [line.split(maxsplit=1)[1] for line in lines[1:]]
    assert values == [
        "1",
        "1/2*λ - 1/2",
        "-1/6*λ^2 + 1/6",
        "1/4*λ^3 - 1/4*λ",
        "-19/30*λ^4 + 2/3*λ^2 - 1/30",
        "9/4*λ^5 - 5/2*λ^3 + 1/4*λ",
    ]


def test_table_euler_classical_limit(capsys):
    code, out, _ = run(capsys, "table", "deg-euler", "--n", "5", "--lambda", "0")
    assert code == 0
    values = [line.split(maxsplit=1)[1] for line in out.strip().splitlines()[1:]]
    assert values == ["1", "-1/2", "0", "1/4", "0", "-1/2"]


def test_table_stirling_single_row(capsys):
    code, out, _ = run(capsys, "table", "stirling1", "--n", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split() == ["0", "0", "1"]


def test_stirling1_latex_cells_are_poly_latex(capsys):
    code, out, _ = run(capsys, "table", "stirling1", "--n", "4", "--format", "latex")
    assert code == 0
    rows = [line.removesuffix(" \\\\").split(" & ") for line in out.splitlines() if " & " in line]
    assert rows[0] == ["n", "k", "value"] and len(rows) == 1 + 15
    cells = {(int(n), int(k)): latex for n, k, latex in rows[1:]}
    for (n, k), latex in cells.items():
        assert latex == f"${poly_latex(Poly.const(families.stirling_first(n, k)))}$"
    # signed values follow the polynomial sign rule
    assert (cells[4, 1], cells[4, 2], cells[4, 0]) == ("$-6$", "$11$", "$0$")


def test_table_symbolic_argument(capsys):
    for text, at in (("x", X), ("x+1", X + 1), ("2*x", 2 * X)):
        code, out, _ = run(capsys, "table", "deg-bernoulli", "--n", "3", "--x", text)
        assert code == 0
        values = [line.split(maxsplit=1)[1] for line in out.strip().splitlines()[1:]]
        expected = bernoulli_polynomials(3, at)
        assert [Poly.parse(v) for v in values] == expected


def test_table_json_round_trips_exactly(capsys):
    code, out, _ = run(capsys, "table", "deg-euler", "--n", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == "1"
    expected = euler_polynomials(6)
    parsed = [Poly.parse(row["value"]) for row in doc["rows"]]
    assert parsed == expected


def test_table_json_pinned_rationals(capsys):
    code, out, _ = run(
        capsys, "table", "deg-bernoulli", "--n", "4", "--lambda", "1/3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    for row, poly in zip(doc["rows"], bernoulli_polynomials(4)):
        assert Fraction(row["value"]) == poly.evaluate({"λ": Fraction(1, 3)})


def test_table_csv_quotes_polynomials(capsys):
    code, out, _ = run(capsys, "table", "deg-bernoulli", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == '"n","value"'
    assert lines[2] == '1,"1/2*λ - 1/2"'


def test_table_latex(capsys):
    code, out, _ = run(capsys, "table", "deg-bernoulli", "--n", "1", "--format", "latex")
    assert code == 0
    assert "\\begin{tabular}" in out
    assert "$\\frac{1}{2} \\lambda - \\frac{1}{2}$" in out


def test_table_sheffer_t_with_orders(capsys):
    code, out, _ = run(capsys, "table", "sheffer-t", "--n", "2", "--a", "1", "--b", "1")
    assert code == 0
    values = [line.split(maxsplit=1)[1] for line in out.strip().splitlines()[1:]]
    assert [Poly.parse(v) for v in values] == [sheffer_type(n, 1, 1) for n in range(3)]


def test_table_sheffer_y_needs_provider(capsys):
    code, _, err = run(capsys, "table", "sheffer-y", "--n", "2")
    assert code == 2
    assert "provider" in err


def test_table_sheffer_y_pins_a_symbolic_p(capsys):
    for spec, pinned in (("ber:p", "ber:1/3"), ("iid:ber:p:2", "iid:ber:1/3:2")):
        code, out, _ = run(capsys, "table", "sheffer-y", "--provider", spec, "--p", "1/3",
                           "--n", "3", "--format", "json")
        assert code == 0
        _, expected, _ = run(capsys, "table", "sheffer-y", "--provider", pinned,
                             "--n", "3", "--format", "json")
        assert json.loads(out)["rows"] == json.loads(expected)["rows"]


def test_table_bad_rational(capsys):
    code, _, err = run(capsys, "table", "deg-bernoulli", "--n", "2", "--lambda", "nope")
    assert code == 2
    assert "cannot parse" in err


def test_verify_subset_and_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "thm2.*")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "5/5 identities verified"


def test_verify_single_identity_json(capsys):
    code, out, _ = run(capsys, "verify", "thm3.4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"version", "cases"}
    assert doc["cases"] == [{"id": "thm3.4", "maxN": 8, "equal": True, "mismatch": None}]


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "no-such-id")
    assert code == 2
    assert "no identity registered" in err


def test_verify_fault_injection(capsys):
    code, out, _ = run(capsys, "verify", "fault-injection", "--inject-fault", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    case = doc["cases"][0]
    assert case["equal"] is False
    assert case["mismatch"] == {"n": 2, "diff": "-1"}


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("plain", "thm3.4: ok (n <= 3)\nfault-injection: MISMATCH at n=2 diff = -1\n"
                  "1/2 identities verified\n"),
        ("csv", '"id","maxN","equal","mismatch_n","diff"\n"thm3.4",3,"true","",""\n'
                '"fault-injection",3,"false",2,"-1"\n'),
        ("latex", "\\begin{tabular}{ll}\n\\hline\nid & status \\\\\n\\hline\n"
                  "\\verb|thm3.4| & ok \\\\\n\\verb|fault-injection| & mismatch at $n=2$ \\\\\n"
                  "\\hline\n\\end{tabular}\n"),
    ],
)
def test_verify_mismatch_output(capsys, fmt, expected):
    code, out, _ = run(
        capsys, "verify", "fault-injection", "thm3.4", "--inject-fault", "--n", "3", "--format", fmt
    )
    assert code == 1
    assert out == expected


def test_verify_fault_case_absent_without_flag(capsys):
    code, _, err = run(capsys, "verify", "fault-injection")
    assert code == 2
    assert "no identity registered" in err


def test_mc_passes_and_is_byte_deterministic(capsys):
    args = (
        "mc",
        "thm3.1",
        "--provider",
        "uniform01",
        "--lambda",
        "1/8",
        "--x",
        "1/4",
        "--n",
        "2",
        "--samples",
        "20000",
        "--seed",
        "42",
        "--format",
        "json",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["exact"] == "1/32"
    assert doc["pass"] is True
    assert abs(doc["z"]) <= 3


def test_mc_constant_case(capsys):
    argv = ("mc", "thm3.1", "--lambda", "1/8", "--x", "1/4", "--n", "0", "--samples", "100")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["estimate"] == 1.0
    assert doc["std_error"] == 0.0
    assert doc["exact"] == "1/1"
    # csv: one header line and one row, strings quoted and numbers bare
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out == (
        '"command","identity","n","lambda","x","samples","seed","provider","exact",'
        '"exact_float","estimate","std_error","z","pass"\n'
        '"mc","thm3.1",0,"1/8","1/4",100,42,"uniform01","1/1",1.0,1.0,0.0,0.0,True\n'
    )


@pytest.mark.parametrize("spec", ["ber:1", "ber:0"])
def test_mc_point_mass_never_passes(capsys, spec):
    """Draws of a point mass are all one float, so from n = 1 on they say nothing about y.

    The run exits 2 whether the float mean of the draws is that float or off by rounding (at
    x = 2/3 and 1/3 it is, and the spread was once that rounding); at n = 0 the target is 1.
    """
    for n in ("0", "1", "2", "3", "5"):
        for x in ("1/4", "2/3", "1/3"):
            code, out, err = run(capsys, "mc", "thm3.1", "--provider", spec, "--n", n,
                                 "--lambda", "1/8", "--x", x, "--samples", "200", "--format", "json")
            if n == "0":
                assert (code, json.loads(out)["pass"]) == (0, True), x
            else:
                assert (code, out) == (2, ""), (n, x)
                assert "carry no information" in err
                assert sum(line.startswith("error:") for line in err.splitlines()) == 1


def test_mc_thm37(capsys):
    code, out, _ = run(
        capsys, "mc", "thm3.7", "--lambda", "1/8", "--x", "1/4", "--n", "2",
        "--m", "3", "--l", "2", "--samples", "50000", "--seed", "5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 3 and doc["l"] == 2
    assert doc["pass"] is True


def test_mc_requires_point(capsys):
    code, _, err = run(capsys, "mc", "thm3.1", "--n", "1")
    assert code == 2
    assert "--lambda" in err


def test_mc_unsamplable_provider(capsys):
    code, _, err = run(
        capsys, "mc", "thm3.1", "--provider", "ber:p", "--lambda", "0", "--x", "1", "--n", "1"
    )
    assert code == 2
    assert "sampled" in err


def test_provider_specs():
    assert parse_provider("uniform01") == Uniform01()
    assert parse_provider("zero") == Zero()
    assert parse_provider("ber:1/2") == Bernoulli(Fraction(1, 2))
    assert parse_provider("iid:ber:1/2:3") == IidSum(Bernoulli(Fraction(1, 2)), 3)
    assert parse_provider("iid:uniform01:2") == IidSum(Uniform01(), 2)
    with pytest.raises(BadParams):
        parse_provider("gaussian")


def _nested_iid(depth: int, copies: int) -> str:
    return "iid:" * depth + "ber:1/2" + f":{copies}" * depth


_NESTED_COMMANDS = {
    "table": ("table", "sheffer-y", "--n", "2"),
    "mc": ("mc", "thm3.1", "--lambda", "1/8", "--x", "1/4", "--samples", "100"),
}


@pytest.mark.parametrize("depth", [MAX_IID_NESTING + 1, 5000])
@pytest.mark.parametrize("command", _NESTED_COMMANDS)
def test_a_provider_nested_too_deep_is_a_usage_error(command, depth, capsys):
    code, out, err = run(capsys, *_NESTED_COMMANDS[command], "--provider", _nested_iid(depth, 1))
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == f"error: iid specs nest at most {MAX_IID_NESTING} deep"
    assert [line.startswith("error:") for line in err.splitlines()].count(True) == 1


def test_a_provider_nested_to_the_bound_is_read(capsys):
    spec = _nested_iid(MAX_IID_NESTING, 2)
    assert parse_provider(spec).columns == 2 ** MAX_IID_NESTING
    code, out, _ = run(capsys, "table", "sheffer-y", "--n", "2", "--provider", spec)
    assert code == 0 and len(out.splitlines()) == 4


def test_order_is_not_an_option():
    with pytest.raises(SystemExit) as exc:
        main(["table", "deg-bernoulli", "--n", "2", "--order", "5"])
    assert exc.value.code == 2


def test_config_is_not_an_option(tmp_path, capsys):
    config = tmp_path / "degenpoly.conf"
    config.write_text("format=json\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["table", "deg-bernoulli", "--n", "2", "--config", str(config)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("table", "deg-bernoulli"),
    ("verify", "thm3.4"),
    ("mc", "thm3.1", "--lambda", "1/8", "--x", "1/4", "--samples", "1000"),
])
def test_the_environment_sets_no_parameter(argv, monkeypatch, capsys):
    expected = run(capsys, *argv)
    for key, value in (("N", "1"), ("FORMAT", "json"), ("SAMPLES", "abc"), ("SEED", "-1")):
        monkeypatch.setenv("DEGENPOLY_" + key, value)
    assert run(capsys, *argv) == expected


# the interpreter's limit on the digits of an int made text; 0, no limit, before Python 3.10.7
_int_text_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


@contextlib.contextmanager
def _unlimited_int_text():
    saved = _int_text_limit()
    if saved:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if saved:
            sys.set_int_max_str_digits(saved)


def test_an_exact_value_of_any_size_prints(capsys):
    # 4,000 digits parse, and x^2 - λx at that x has 8,000
    nines = "9" * 4000
    limit = _int_text_limit()
    code, out, err = run(capsys, "table", "falling-lambda", "--n", "2", "--x", nines)
    assert (code, err) == (0, "")
    assert _int_text_limit() == limit
    value = out.splitlines()[3].split(maxsplit=1)[1]
    with _unlimited_int_text():
        x = int(nines)
        assert Poly.parse(value) == Poly.const(x * x) - LAM * x


def test_a_flag_literal_over_the_int_text_limit_is_a_usage_error(capsys):
    # the CLI's own bound, so a Python with no limit on int text reads the same literals
    digits = MAX_LITERAL_DIGITS + 1
    code, out, err = run(capsys, "table", "falling-lambda", "--n", "2", "--x", "9" * digits)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot parse x value")


# each flag that reads a rational, as an argv around its literal; the `--flag=value` form hands
# a literal that starts with '-' to the CLI's parser instead of to argparse's option matching
_RATIONAL_FLAGS = {
    "table --lambda": ("table", "deg-bernoulli", "--n", "2", "--lambda={}"),
    "table --p": ("table", "sheffer-y", "--provider", "ber:p", "--n", "2", "--p={}"),
    "ber:<p>": ("table", "sheffer-y", "--n", "2", "--provider=ber:{}"),
    "mc --lambda": ("mc", "thm3.1", "--lambda={}", "--x", "1/4", "--samples", "100"),
    "mc --x": ("mc", "thm3.1", "--lambda", "1/8", "--x={}", "--samples", "100"),
}
_LONGEST = "1/" + "9" * MAX_LITERAL_DIGITS
_RATIONAL_CASES = [
    # Fraction's decimal and exponent forms are not in the grammar, and no number is longer
    *[(flag, literal, 2) for flag in _RATIONAL_FLAGS
      for literal in ("0.125", "1e3", "5e-1", "1e300000", _LONGEST + "9")],
    *[(flag, literal, 0) for flag in _RATIONAL_FLAGS for literal in (" 3/4", "+1/8", _LONGEST)],
    # a negative probability is out of range
    *[(flag, "-1/2", 2 if flag in ("table --p", "ber:<p>") else 0) for flag in _RATIONAL_FLAGS],
    # an x past the float range, which the sampler and the exact value cannot take
    ("mc --x", "1" + "0" * 400, 2),
]


_RATIONAL_IDS = [f"{flag}={literal if len(literal) < 12 else f'<{len(literal)} chars>'}"
                 for flag, literal, _ in _RATIONAL_CASES]


@pytest.mark.parametrize("flag, literal, code", _RATIONAL_CASES, ids=_RATIONAL_IDS)
def test_every_rational_flag_reads_one_grammar(flag, literal, code):
    # a fresh process, so that a traceback would show on stderr
    argv = [arg.format(literal) for arg in _RATIONAL_FLAGS[flag]]
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "degenpoly.cli", *argv],
                          env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert done.returncode == code
    assert "Traceback" not in done.stderr
    errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == (code == 2)
    assert (done.stdout == "") == (code == 2)
    if literal == "1e300000":
        assert elapsed < 0.5  # no 300,001-digit value is built, parsed or printed


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--n", "-3"),
        ("verify", "zzz*"),
        ("table", "deg-bernoulli", "--x", "1/0"),
        ("table", "deg-bernoulli", "--lambda", "1/0"),
        ("table", "sheffer-y", "--provider", "iid:uniform01:0"),
        ("mc", "thm3.1", "--lambda", "1/8", "--x", "1/4", "--seed", "-1"),
        # one draw has no standard error
        ("mc", "thm3.1", "--lambda", "1/8", "--x", "1/4", "--samples", "1"),
        # a Bernoulli probability outside [0, 1], in every command and as a pin of ber:p
        ("table", "sheffer-y", "--provider", "ber:2"),
        ("table", "sheffer-y", "--provider", "ber:-1"),
        ("table", "sheffer-y", "--provider", "iid:ber:2:2"),
        ("mc", "thm3.1", "--provider", "ber:3/2", "--lambda", "1/8", "--x", "1/4"),
        ("table", "sheffer-y", "--provider", "ber:p", "--p", "2"),
        ("table", "deg-bernoulli", "--format", "yaml"),
        ("table", "stirling1", "--n", "1", "--x", "5", "--lambda", "1/2", "--format", "json"),
        ("table", "stirling1", "--lambda", "1/2"),
        ("table", "stirling1", "--x", "x"),
        ("table", "stirling1", "--p", "1/3"),
        ("table", "deg-bernoulli", "--n", "1", "--p", "1/3", "--a", "1/0", "--provider", "bogus",
         "--format", "json"),
        ("mc", "thm3.7", "--provider", "bogus", "--lambda", "1/2", "--x", "1/3"),
        ("mc", "thm3.1", "--m", "3", "--l", "2", "--lambda", "1/2", "--x", "1/3"),
        ("table", "sheffer-y", "--provider", "uniform01", "--p", "1/3", "--n", "1",
         "--format", "json"),
        ("table", "sheffer-y", "--provider", "ber:1/2", "--p", "1/3"),
        ("table", "sheffer-y", "--provider", "zero", "--p", "1/3"),
        ("table", "sheffer-y", "--provider", "iid:uniform01:2", "--p", "1/3"),
        ("table", "deg-bernoulli", "--n", "1", "--x", f"x^{DEGREE_LIMIT}"),
        ("table", "higher-bernoulli", "--n", "1", "--a", f"a^{DEGREE_LIMIT}"),
        # each value parses, but a product of the table passes the degree limit
        ("table", "falling-lambda", "--n", "3", "--x", f"x^{DEGREE_LIMIT // 2}"),
        ("table", "higher-euler", "--n", "2", "--b", f"b^{DEGREE_LIMIT - 1}"),
        # --p pins a probability: a rational, never a polynomial
        ("table", "sheffer-y", "--provider", "ber:p", "--p", "x"),
        ("table", "sheffer-y", "--provider", "ber:p", "--p", "p"),
        ("table", "sheffer-y", "--provider", "ber:p", "--p", "y"),
        ("table", "sheffer-y", "--provider", "iid:ber:p:2", "--p", "x+1"),
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert any(line.startswith("error: ") for line in err.splitlines())


_FLAG_VALUES = ("1/0", "nope", "x^1/2", "x+1", "2/3", "1/3", "0", "x", "a")
_PROVIDER_SPECS = ("uniform01", "zero", "ber:1/2", "ber:p", "iid:ber:1/2:2", "iid::2", "ber:1/0", "dice")


@st.composite
def _cli_argv(draw) -> list[str]:
    if draw(st.booleans()):
        argv = ["table", draw(st.sampled_from(_FAMILY_NAMES))]
        for flag in ("--lambda", "--x", "--p", "--a", "--b"):
            if draw(st.integers(0, 2)) == 0:
                argv += [flag, draw(st.sampled_from(_FLAG_VALUES))]
        if draw(st.booleans()):
            argv += ["--provider", draw(st.sampled_from(_PROVIDER_SPECS))]
    else:
        argv = ["verify", draw(st.sampled_from(("thm2.4", "thm3.4", "cor2.*", "zzz*", "nope")))]
    argv += ["--n", draw(st.sampled_from(("-1", "0", "1", "2", "3")))]
    argv += ["--format", draw(st.sampled_from(FORMATS + ("xml",)))]
    if draw(st.integers(0, 5)) == 0:
        argv += ["--order", "3"]  # not an option: argparse rejects it
    return argv


@settings(max_examples=60, deadline=None)
@given(_cli_argv())
def test_exit_codes_are_0_or_2(argv):
    # no identity drawn here can mismatch, so exit 1 would be a crash reported as a failure
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), argv


_MC_PROVIDERS = (("uniform01", "ber:1/2", "iid:uniform01:2"),
                 ("zero", "ber:p", "ber:3/2", "iid::2"))
_MC_COPIES = (((2, 1), (3, 2), (2, 2)), ((1, 2), (0, 0), (2, -1)))


@st.composite
def _mc_argv(draw) -> tuple[list[str], bool]:
    """An mc argv and whether it holds a malformed, unsamplable, missing or unread value."""
    bad = False

    def pick(good, malformed):
        nonlocal bad
        if draw(st.integers(0, 4)) == 0:
            bad = True
            return draw(st.sampled_from(malformed))
        return draw(st.sampled_from(good))

    identity = draw(st.sampled_from(("thm3.1", "thm3.7")))
    argv = ["mc", identity, "--n", pick(("0", "1", "2", "3"), ("-1",)),
            "--samples", pick(("200", "1000"), ("0", "1")), "--seed", "7"]
    for flag in ("--lambda", "--x"):
        value = pick(("1/8", "1/4", "2/3"), ("1/0", "x", "nope", None))  # None: flag left out
        if value is not None:
            argv += [flag, value]
    if draw(st.booleans()):
        if identity == "thm3.1":
            spec = pick(*_MC_PROVIDERS)
        else:
            bad, spec = True, draw(st.sampled_from(_MC_PROVIDERS[0]))
        argv += ["--provider", spec]
    if draw(st.booleans()):
        if identity == "thm3.7":
            m, l = pick(*_MC_COPIES)
        else:
            bad, (m, l) = True, draw(st.sampled_from(_MC_COPIES[0]))
        argv += ["--m", str(m), "--l", str(l)]
    argv += ["--format", pick(FORMATS, ("xml",))]
    return argv, bad


@settings(max_examples=40, deadline=None)
@given(_mc_argv())
def test_mc_exit_codes(case):
    argv, bad = case
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    # 1 is a failed Monte-Carlo check, which only a well-formed argv may report
    assert (code == 2) if bad else (code in (0, 1)), argv


# each flag that reads a count, as an argv around its literal
_COUNT_FLAGS = {
    "table --n": ("table", "stirling1", "--n={}"),
    "verify --n": ("verify", "thm2.4", "--n={}"),
    "mc --n": ("mc", "thm3.1", "--lambda", "1/8", "--x", "1/4", "--samples", "200", "--n={}"),
    "--samples": ("mc", "thm3.1", "--lambda", "1/8", "--x", "1/4", "--samples={}"),
    "--seed": ("mc", "thm3.1", "--lambda", "1/8", "--x", "1/4", "--samples", "200", "--seed={}"),
    "--m": ("mc", "thm3.7", "--lambda", "1/8", "--x", "1/4", "--samples", "200", "--m={}"),
    "--l": ("mc", "thm3.7", "--lambda", "1/8", "--x", "1/4", "--samples", "200", "--m", "3",
            "--l={}"),
    "iid copy count": ("table", "sheffer-y", "--n", "2", "--provider=iid:ber:1/2:{}"),
}
# a count is written as it prints: no '_', exponent, point, fraction, '+', space or leading 0
_MALFORMED_COUNTS = ("1_000", "2e3", "2.0", "4/2", "+2", " 2", "2 ", "02", "-0", "x", "",
                     "9" * (MAX_LITERAL_DIGITS + 1))


@pytest.mark.parametrize("literal", _MALFORMED_COUNTS,
                         ids=lambda literal: repr(literal) if len(literal) < 12 else "longest+1")
@pytest.mark.parametrize("flag", _COUNT_FLAGS)
def test_every_count_flag_reads_one_grammar(flag, literal, capsys):
    argv = [arg.format(literal) for arg in _COUNT_FLAGS[flag]]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith("error: cannot parse ")
    # a well-formed count is read
    code, out, err = run(capsys, *[arg.format("3") for arg in _COUNT_FLAGS[flag]])
    assert (code, err) == (0, "")


@pytest.mark.parametrize("flag, literal", [("table --n", "-1"), ("--samples", "1"),
                                           ("--seed", "-1"), ("--l", "0"), ("--m", "0"),
                                           ("iid copy count", "0")])
def test_a_count_below_its_least_value_is_a_usage_error(flag, literal, capsys):
    code, out, err = run(capsys, *[arg.format(literal) for arg in _COUNT_FLAGS[flag]])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and " must be at least " in err


# the first --n every command but `table stirling1` refuses: at n a product reaches exponent
# n + 1 at most (thm3.11-E reads index n + 1), so from here on one could reach DEGREE_LIMIT
_FIRST_REFUSED_N = DEGREE_LIMIT - 1
_TABLE_ARGV = {family: ("table", family) for family in _FAMILY_NAMES if family != "stirling1"}
_TABLE_ARGV["sheffer-y"] += ("--provider", "uniform01")
_MC_ARGV = [("mc", thm, "--lambda", "1/8", "--x", "1/4") for thm in ("thm3.1", "thm3.7")]
_BOUNDED_ARGV = [*_TABLE_ARGV.values(), ("verify",), ("verify", "thm3.11-E"), *_MC_ARGV]


@pytest.mark.parametrize("argv", _BOUNDED_ARGV, ids=[" ".join(argv[:2]) for argv in _BOUNDED_ARGV])
def test_an_n_at_the_degree_limit_is_refused_at_once(argv, capsys):
    for n in (_FIRST_REFUSED_N, _FIRST_REFUSED_N + 5, 10 ** 30):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--n", str(n))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --n must be below {_FIRST_REFUSED_N},")


# each bounded command at n = 5, and the highest exponent its products reach there
_AT_FIVE = {
    **{family: (argv + ("--x", "x"), 5) for family, argv in _TABLE_ARGV.items()},
    **{" ".join(argv[:2]): (argv + ("--samples", "1000"), 5) for argv in _MC_ARGV},
    "verify": (("verify",), 6),
    "verify but thm3.11-E": (("verify", *(i for i in registered_ids() if i != "thm3.11-E")), 5),
}


@pytest.mark.parametrize("command", _AT_FIVE)
def test_the_refused_n_is_where_a_table_reaches_the_degree_limit(command, monkeypatch, capsys):
    # the bound is safe: at n = 5 no product of any command passes exponent n + 1 = 6; and it is
    # tight: the registry reaches 6, through thm3.11-E alone
    for name in ("bernoulli_base", "euler_base", "stirling_first"):  # a cached value is no product
        getattr(families, name).cache_clear()
    argv, expected = _AT_FIVE[command]
    top = []
    dot = Poly.dot.__func__

    def spy(cls, triples):
        product = dot(cls, triples)
        top.append(max((max(exps) for exps in product.terms), default=0))
        return product

    monkeypatch.setattr(Poly, "dot", classmethod(spy))
    code, _, err = run(capsys, *argv, "--n", "5")
    assert (code, err) == (0, "")
    assert max(top) == expected


def test_stirling1_has_no_degree_bound(monkeypatch, capsys):
    seen = []

    def no_rows(args, n_max):  # the rows themselves would take hours
        seen.append(n_max)
        return [], {}

    monkeypatch.setattr("degenpoly.cli._family_rows", no_rows)
    code, _, err = run(capsys, "table", "stirling1", "--n", str(10 * DEGREE_LIMIT))
    assert (code, err, seen) == (0, "", [10 * DEGREE_LIMIT])


def test_verify_reads_the_last_n_below_the_bound(monkeypatch, capsys):
    from degenpoly.identities import Report

    seen = []

    def no_reports(ids, max_n, extra):  # the reports themselves would take hours
        seen.append(max_n)
        return [Report("stub", max_n, True)]

    monkeypatch.setattr("degenpoly.identities.verify_all", no_reports)
    code, _, err = run(capsys, "verify", "--n", str(_FIRST_REFUSED_N - 1))
    assert (code, err, seen) == (0, "", [_FIRST_REFUSED_N - 1])


# -- the exit-code contract over generated argv -------------------------------------

_LONGEST_INT = "9" * MAX_LITERAL_DIGITS
# literals with whether they are in the grammar; a literal outside it must end in exit 2
_RATIONALS = [(t, True) for t in ("0", "7", "1/8", "-1/2", "+3/4", " 2/3", "1/" + _LONGEST_INT,
                                  "1" + "0" * 154, "1" + "0" * 200, "-1" + "0" * 300,
                                  "1" + "0" * 400)]
_RATIONALS += [(t, False) for t in ("1_000", "1e3", "0.125", "-1e300000", "1/0",
                                    _LONGEST_INT + "9")]
_POLYS = _RATIONALS + [("x", True), ("a", True), ("x+1", True), ("λ^2", True), ("x^1/2", False)]
_COUNTS = [(t, True) for t in ("0", "1", "2", "3", "-1")]
_COUNTS += [(t, False) for t in ("1_0", " 2", "+2", "2/1", "2e0", _LONGEST_INT + "9")]
_FOUND_X = {n: "1" + "0" * zeros for n, zeros in ((1, 200), (2, 154))}


@st.composite
def _contract_argv(draw) -> tuple[list[str], bool]:
    """An argv of any command, and whether a literal in it lies outside the grammar."""
    malformed = False

    def literal(pool):
        nonlocal malformed
        text, ok = draw(st.sampled_from(pool))
        malformed |= not ok
        return text

    def provider(depth=0):
        if depth < 3 and draw(st.integers(0, 2)) == 0:
            return f"iid:{provider(depth + 1)}:{literal(_COUNTS + [(_LONGEST_INT, True)])}"
        spec = draw(st.sampled_from(("uniform01", "zero", "ber:", "ber:p", "dice", "iid::2")))
        return spec + literal(_RATIONALS) if spec == "ber:" else spec

    def flag(name, value):  # the value is drawn only for a flag that is given
        return [f"{name}={value()}"] if draw(st.booleans()) else []

    command = draw(st.sampled_from(("table", "verify", "mc")))
    if command == "table":
        argv = ["table", draw(st.sampled_from(_FAMILY_NAMES))]
        for name in ("--lambda", "--x", "--p", "--a", "--b"):
            argv += flag(name, lambda: literal(_POLYS))
        argv += flag("--provider", provider)
    elif command == "verify":
        argv = ["verify", *draw(st.lists(st.sampled_from(("thm2.4", "thm3.*", "cor2.2-E", "zzz*")),
                                         max_size=2))]
        if draw(st.booleans()):
            argv.append("--inject-fault")
    else:
        argv = ["mc", draw(st.sampled_from(("thm3.1", "thm3.7")))]
        for name in ("--lambda", "--x"):
            argv += flag(name, lambda: literal(_RATIONALS))
        argv += ["--samples=" + literal([(t, True) for t in ("1", "2", "200", "2000")]
                                        + [("1_000", False), ("2e3", False)])]
        argv += flag("--seed", lambda: literal(_COUNTS + [(_LONGEST_INT, True)]))
        argv += flag("--provider", provider)
        for name in ("--m", "--l"):
            argv += flag(name, lambda: literal(_COUNTS))
    # every --n drawn here is cheap, or exits 2 before any work
    argv += flag("--n", lambda: literal([(t, True) for t in ("0", "1", "2", "4", "-3")]
                                        + _COUNTS[5:]))
    argv += flag("--format", lambda: draw(st.sampled_from(FORMATS + ("xml",))))
    return argv, malformed


def _mc_figures(out: str, fmt: str) -> tuple[float, float]:
    """The estimate and standard error of an mc report in any format."""
    if fmt == "json":
        doc = json.loads(out)
    elif fmt == "csv":
        header, row = csv.reader(io.StringIO(out))
        doc = dict(zip(header, row))
    else:
        sep = ": " if fmt == "plain" else " & "
        doc = dict(line.removesuffix(" \\\\").split(sep, 1) for line in out.splitlines()
                   if sep in line)
    return float(doc["estimate"]), float(doc["std_error"])


@settings(max_examples=120, deadline=None)
@given(_contract_argv())
# draws that are all one float, flagged so that they must exit 2 like a malformed literal;
# then a pass on a nan standard error, and an inf estimate reported as a failure
@example((["mc", "thm3.1", "--n", "1", "--lambda", "1/8", "--x", _FOUND_X[1], "--samples", "1000"],
          True))
@example((["mc", "thm3.1", "--n", "2", "--lambda", "1/8", "--x", _FOUND_X[2], "--samples", "1000"],
          False))
# point masses, whose draws' float mean can be off by rounding, so that their spread is not 0
@example((["mc", "thm3.1", "--provider", "ber:1", "--n", "1", "--lambda", "1/8", "--x", "2/3",
           "--samples", "200"], True))
@example((["mc", "thm3.1", "--provider", "ber:0", "--n", "1", "--lambda", "1/8", "--x", "2/3",
           "--samples", "200"], True))
@example((["mc", "thm3.1", "--provider", "iid:ber:1:3", "--n", "2", "--lambda", "1/8", "--x", "2/3",
           "--samples", "200"], True))
# a count outside the grammar, and an i.i.d. sum of very many copies
@example((["mc", "thm3.1", "--lambda", "1/8", "--x", "1/4", "--samples", "1_000"], True))
@example((["table", "stirling1", "--n", "1_0"], True))
@example((["table", "sheffer-y", "--n", "2", "--provider", f"iid:ber:1/2:{_LONGEST_INT}"], False))
def test_every_input_ends_in_0_1_or_2(case):
    argv, malformed = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    assert sum("error:" in line for line in err.splitlines()) == (code == 2), argv
    if malformed:
        assert code == 2, argv
    if code == 1:  # a mismatch, which only the injected fault makes, or a failed mc check
        assert "--inject-fault" in argv or argv[0] == "mc", argv
    if argv[0] == "mc" and code != 2:
        fmt = next((a.split("=", 1)[1] for a in argv if a.startswith("--format=")), "plain")
        estimate, std_error = _mc_figures(out, fmt)
        assert math.isfinite(estimate) and math.isfinite(std_error), argv


def test_poly_latex_rendering():
    p = LAM ** 2 * Fraction(-3, 4) + X * 2 - 1
    assert poly_latex(p) == "-\\frac{3}{4} \\lambda^{2} + 2 x - 1"
    assert poly_latex(Poly()) == "0"


def test_byte_determinism_across_formats(capsys):
    for fmt in ("plain", "json", "csv", "latex"):
        args = ("table", "deg-euler", "--n", "4", "--format", fmt)
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


# the package under test, which may be another checkout's: fresh interpreters import it too
_SRC = Path(degenpoly.__file__).resolve().parents[1]


def test_numpy_is_imported_by_mc_only():
    # a fresh interpreter, because pytest or an earlier test may have imported numpy already;
    # dataclasses (and the inspect module it loads) is never imported, by any command, and the
    # identity registry only by verify, which runs last
    script = """
import contextlib, io, sys
import degenpoly.cli
def loaded():
    return tuple(name in sys.modules for name in ("numpy", "dataclasses", "degenpoly.identities"))
seen = [loaded()]
for argv in (["table", "deg-bernoulli", "--n", "3"],
             ["mc", "thm3.1", "--lambda", "1/8", "--x", "1/4", "--n", "2", "--samples", "2000"],
             ["verify", "thm3.4", "--n", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = degenpoly.cli.main(argv)
    seen.append((code, *loaded()))
print(seen)
"""
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == (
        "[(False, False, False), (0, False, False, False), (0, True, False, False),"
        " (0, True, False, True)]"
    )


def test_package_re_exports_the_identity_names():
    from degenpoly import Report, verify_all

    assert verify_all is degenpoly.identities.verify_all
    assert degenpoly.verify_all is degenpoly.identities.verify_all
    assert Report is degenpoly.identities.Report
    for name in ("Mismatch", "UnknownIdentity", "registered_ids", "verify"):
        assert getattr(degenpoly, name) is getattr(degenpoly.identities, name)
    with pytest.raises(AttributeError, match="no attribute 'select_ids'"):
        degenpoly.select_ids


def test_main_freezes_nothing(capsys):
    assert gc.get_freeze_count() == 0
    assert run(capsys, "table", "stirling1", "--n", "2")[0] == 0
    assert run(capsys, "verify", "thm3.4", "--n", "2")[0] == 0
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize(
    "argv, code",
    [
        (("table", "stirling1", "--n", "3", "--format", "csv"), 0),
        (("verify", "fault-injection", "thm3.4", "--inject-fault", "--n", "3"), 1),
        (("verify", "nosuch"), 2),
    ],
)
def test_process_entry_keeps_bytes_and_exit_code(argv, code, capsys):
    expected = run(capsys, *argv)
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    done = subprocess.run([sys.executable, "-m", "degenpoly.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == expected
    assert expected[0] == code
    if code == 2:
        assert done.stderr == ("error: no identity registered under 'nosuch'\n"
                               "run 'degenpoly verify --help' for usage\n")


def test_the_script_and_module_entry_is_run_and_it_freezes():
    # Python 3.10 has no tomllib, so the script line is matched as text
    pyproject = (_SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    [script] = re.findall(r'^degenpoly = "degenpoly\.cli:(\w+)"$', pyproject, re.MULTILINE)
    cli_source = (_SRC / "degenpoly" / "cli.py").read_text(encoding="utf-8")
    [module] = re.findall(r'^if __name__ == "__main__":\n    sys\.exit\((\w+)\(\)\)$',
                          cli_source, re.MULTILINE)
    assert script == module == "run"
    probe = """
import gc, sys
import degenpoly.cli
sys.argv = ["degenpoly", "table", "stirling1", "--n", "1"]
code = degenpoly.cli.run()
print(code, gc.get_freeze_count() > 0)
"""
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 True"


@pytest.mark.parametrize("provider", ["ber:3/2", "zero"])
def test_mc_unsamplable_provider_fails_with_one_error_line(provider):
    # a fresh process, so that a traceback printed by any thread would show on stderr
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "degenpoly.cli", "mc", "thm3.1", "--provider", provider,
         "--lambda", "1/8", "--x", "1/4", "--samples", str(3 * CHUNK + 5)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert [line.startswith("error:") for line in done.stderr.splitlines()].count(True) == 1
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "argv, streams",
    [
        (("thm3.1", "--provider", "iid:ber:1/2:1000000"), 10**6),
        (("thm3.1", "--provider", "iid:ber:1/2:100000000"), 10**8),
        (("thm3.1", "--provider", "iid:iid:uniform01:64:65"), 64 * 65),
        (("thm3.7", "--m", "5000", "--l", f"{MC_MAX_STREAMS + 1}"), MC_MAX_STREAMS + 1),
        (("thm3.1", "--provider", f"iid:uniform01:{MC_MAX_STREAMS}"), MC_MAX_STREAMS),
        (("thm3.7", "--m", "5000", "--l", f"{MC_MAX_STREAMS}"), MC_MAX_STREAMS),
    ],
)
def test_mc_caps_the_stream_count(argv, streams, monkeypatch, capsys):
    # the sampler builds one generator per stream, so it must not even start past the cap
    sampled = []
    monkeypatch.setattr("degenpoly.cli.mc_estimate",
                        lambda target, provider, *rest: sampled.append(provider.columns)
                        or McEstimate(0.0, 1.0, 2))
    code, out, err = run(capsys, "mc", *argv, "--lambda", "1/8", "--x", "1/4")
    if streams > MC_MAX_STREAMS:
        assert (code, out, sampled) == (2, "", [])
        [error] = [line for line in err.splitlines() if line.startswith("error:")]
        assert error.startswith(f"error: mc samples at most {MC_MAX_STREAMS} uniform streams; ")
        assert error.endswith(f" needs {streams}")
    else:
        assert sampled == [streams]


@pytest.mark.parametrize("argv", [
    ("thm3.1", "--provider", "iid:ber:1/2:5000"),
    ("thm3.7", "--m", "5000", "--l", f"{MC_MAX_STREAMS + 1}"),
])
def test_mc_refuses_too_many_streams_before_it_builds_the_target(argv, monkeypatch, capsys):
    # at a large n the target alone takes seconds, so the refusal comes first
    def no_target(self, provider, at):
        raise AssertionError("the target was built")

    monkeypatch.setattr(families.Workspace, "sheffer", no_target)
    code, out, err = run(capsys, "mc", *argv, "--n", "40", "--lambda", "1/8", "--x", "1/4")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: mc samples at most {MC_MAX_STREAMS} uniform streams; ")


def test_mc_reads_one_coefficient_of_the_target_series(monkeypatch, capsys):
    # the target is coefficient n of the Workspace's Sheffer series, and no lower value is made
    targets, reads = [], []
    sheffer, egf_coefficient = families.Workspace.sheffer, Series.egf_coefficient

    def sheffer_spy(self, provider, at):
        targets.append(sheffer(self, provider, at))
        return targets[-1]

    def read_spy(self, n):
        reads.append((self, n))
        return egf_coefficient(self, n)

    monkeypatch.setattr(families.Workspace, "sheffer", sheffer_spy)
    monkeypatch.setattr(Series, "egf_coefficient", read_spy)
    code, _, _ = run(capsys, "mc", "thm3.1", "--n", "6", "--lambda", "1/8", "--x", "1/4",
                     "--samples", "1000")
    assert code == 0 and len(targets) == 1
    assert [n for series, n in reads if series is targets[0]] == [6]


def test_every_hybrid_table_reads_the_workspace():
    # the values `table` prints come from the recipe that `verify` proves, and the registry
    # itself is still not loaded; a fresh interpreter, since this process has loaded it
    script = """
import contextlib, io, sys
import degenpoly.cli
from degenpoly import families
seen = []
hybrid = families.Workspace.hybrid
def spy(self, e1, e2, at):
    seen.append((str(e1), str(e2), str(at)))
    return hybrid(self, e1, e2, at)
families.Workspace.hybrid = spy
for family in degenpoly.cli._FAMILY_NAMES:
    extra = ["--provider", "uniform01"] if family == "sheffer-y" else []
    with contextlib.redirect_stdout(io.StringIO()):
        code = degenpoly.cli.main(["table", family, "--n", "3", *extra])
    print(family, code, seen)
    seen.clear()
print("degenpoly.identities" in sys.modules)
print(degenpoly.__file__)
"""
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    *lines, child_package = done.stdout.splitlines()
    # the child imports the package under test, not whichever checkout holds this file
    assert Path(child_package).resolve() == Path(degenpoly.__file__).resolve()
    assert lines == [
        "falling-lambda 0 [('0', '0', 'x')]",
        "deg-bernoulli 0 [('1', '0', '0')]",
        "deg-euler 0 [('0', '1', '0')]",
        "higher-bernoulli 0 [('a', '0', '0')]",
        "higher-euler 0 [('0', 'b', '0')]",
        "sheffer-t 0 [('a', 'b', '0')]",
        "stirling1 0 []",
        "sheffer-y 0 []",
        "False",
    ]


@pytest.mark.parametrize("argv, calls, pairs", [
    (("table", "sheffer-t", "--n", "8", "--x", "x"), 101, 7472),
    (("table", "sheffer-y", "--provider", "iid:uniform01:2", "--n", "8", "--x", "x"), 39, 877),
])
def test_table_kernel_work_budget(argv, calls, pairs, monkeypatch, capsys):
    # a table builds one family; a recipe that makes more products, or larger ones, for the
    # same values has to raise this budget in plain sight
    for name in ("bernoulli_base", "euler_base", "stirling_first"):  # a cached value is no product
        getattr(families, name).cache_clear()
    seen = {"calls": 0, "pairs": 0}
    dot = Poly.dot.__func__

    def spy(cls, triples):
        triples = list(triples)
        seen["calls"] += 1
        seen["pairs"] += sum(len(f.terms) * len(g.terms) for w, f, g in triples if w)
        return dot(cls, triples)

    monkeypatch.setattr(Poly, "dot", classmethod(spy))
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert seen["calls"] <= calls and seen["pairs"] <= pairs, seen


def test_mc_peak_memory_is_bounded_by_the_chunk():
    # the child reads its own high-water mark: ru_maxrss would carry the parent's across exec
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status")
    script = """
import contextlib, io
import degenpoly.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = degenpoly.cli.main(["mc", "thm3.7", "--m", "3", "--l", "2", "--n", "4", "--lambda", "1/8",
                               "--x", "1/4", "--samples", "10000000"])
with open("/proc/self/status") as status:
    kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(code, kib / 1024)
"""
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    code, peak_mb = done.stdout.split()
    assert code == "0"
    assert float(peak_mb) < 100
