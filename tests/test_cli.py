import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from degenpoly import DEGREE_LIMIT, Poly, bernoulli_polynomials, euler_polynomials, sheffer_type, X
from degenpoly.cli import FORMATS, main, parse_provider, poly_latex, BadParams, _FAMILY_NAMES
from degenpoly.randvar import Bernoulli, IidSum, Uniform01, Zero
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
    code, out, _ = run(
        capsys, "mc", "thm3.1", "--lambda", "1/8", "--x", "1/4", "--n", "0",
        "--samples", "100", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["estimate"] == 1.0
    assert doc["std_error"] == 0.0
    assert doc["exact"] == "1/1"


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


def test_config_precedence(tmp_path, monkeypatch, capsys):
    config = tmp_path / "degenpoly.conf"
    config.write_text("format=csv\nn=2\n# comment\n", encoding="utf-8")

    # file value applies
    code, out, _ = run(capsys, "table", "deg-bernoulli", "--config", str(config))
    assert code == 0
    assert out.startswith('"n","value"')

    # environment beats the file
    monkeypatch.setenv("DEGENPOLY_FORMAT", "json")
    code, out, _ = run(capsys, "table", "deg-bernoulli", "--config", str(config))
    assert code == 0
    assert json.loads(out)["n_max"] == 2

    # flag beats the environment
    code, out, _ = run(
        capsys, "table", "deg-bernoulli", "--config", str(config), "--format", "plain"
    )
    assert code == 0
    assert out.splitlines()[0].split() == ["n", "value"]


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("not a pair\n", encoding="utf-8")
    code, _, err = run(capsys, "table", "deg-bernoulli", "--config", str(bad))
    assert code == 2
    assert "key=value" in err
    code, _, err = run(capsys, "table", "deg-bernoulli", "--config", str(tmp_path / "missing"))
    assert code == 2
    undecodable = tmp_path / "latin.conf"
    undecodable.write_bytes(b"n=\xff\xfe\n")
    code, _, err = run(capsys, "table", "deg-bernoulli", "--config", str(undecodable))
    assert code == 2
    assert "cannot read config file" in err
    # order is not a key: the truncation order follows from n
    removed = tmp_path / "order.conf"
    removed.write_text("order=16\n", encoding="utf-8")
    code, _, err = run(capsys, "table", "deg-bernoulli", "--config", str(removed))
    assert code == 2
    assert "unknown key" in err


def test_order_is_not_an_option():
    with pytest.raises(SystemExit) as exc:
        main(["table", "deg-bernoulli", "--n", "2", "--order", "5"])
    assert exc.value.code == 2


def test_sampling_config_is_read_by_mc_only(monkeypatch, capsys):
    monkeypatch.setenv("DEGENPOLY_SEED", "abc")
    assert run(capsys, "table", "deg-bernoulli", "--n", "1")[0] == 0
    assert run(capsys, "mc", "thm3.1", "--lambda", "1/8", "--x", "1/4")[0] == 2
    monkeypatch.delenv("DEGENPOLY_SEED")
    monkeypatch.setenv("DEGENPOLY_SAMPLES", "1e6")
    assert run(capsys, "verify", "thm3.4", "--n", "1")[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--n", "-3"),
        ("table", "deg-bernoulli", "--x", "1/0"),
        ("table", "deg-bernoulli", "--lambda", "1/0"),
        ("table", "sheffer-y", "--provider", "iid:uniform01:0"),
        ("mc", "thm3.1", "--lambda", "1/8", "--x", "1/4", "--seed", "-1"),
        ("table", "deg-bernoulli", "--config", "{config}"),
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
    ],
)
def test_usage_errors_exit_2(argv, tmp_path, capsys):
    config = tmp_path / "typo.conf"
    config.write_text("ordr=5\n", encoding="utf-8")
    code, _, err = run(capsys, *(arg.format(config=config) for arg in argv))
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
            "--samples", pick(("1", "200", "1000"), ("0",)), "--seed", "7"]
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


_SRC = Path(__file__).resolve().parents[1] / "src"


def test_numpy_is_imported_by_mc_only():
    # a fresh interpreter, because pytest or an earlier test may have imported numpy already
    script = """
import contextlib, io, sys
import degenpoly.cli
loaded = ["numpy" in sys.modules]
for argv in (["table", "deg-bernoulli", "--n", "3"], ["verify", "thm3.4", "--n", "2"],
             ["mc", "thm3.1", "--lambda", "1/8", "--x", "1/4", "--n", "2", "--samples", "2000"]):
    with contextlib.redirect_stdout(io.StringIO()):
        loaded.append((degenpoly.cli.main(argv), "numpy" in sys.modules))
print(loaded)
"""
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[False, (0, False), (0, False), (0, True)]"


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
