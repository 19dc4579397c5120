"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every comparison below is exact polynomial equality unless the
criterion itself is statistical (the Monte-Carlo smoke test, criterion 7).
"""

import json
import time
from fractions import Fraction
from math import factorial

from degenpoly import (
    Bernoulli,
    IidSum,
    Poly,
    Series,
    ShefferSequence,
    Uniform01,
    ZERO,
    ONE,
    LAM,
    X,
    Y,
    P,
    bernoulli_polynomials,
    euler_polynomials,
    expect_polynomial,
    falling_factorial,
    higher_euler,
    mc_estimate,
    stirling_first,
    verify_all,
)
from degenpoly import identities
from degenpoly.cli import main
from degenpoly.families import bernoulli_base, degenerate_exp

import oracles


def _report(number: int, description: str, ok: bool):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_golden_values():
    start = time.perf_counter()
    half = Fraction(1, 2)
    expected_bernoulli = [
        ONE,
        LAM / 2 - half,
        Fraction(1, 6) - LAM ** 2 / 6,
        LAM ** 3 / 4 - LAM / 4,
        LAM ** 2 * Fraction(2, 3) - LAM ** 4 * Fraction(19, 30) - Fraction(1, 30),
        LAM / 4 - LAM ** 3 * Fraction(5, 2) + LAM ** 5 * Fraction(9, 4),
    ]
    expected_euler = [
        ONE,
        Poly.const(-half),
        LAM / 2,
        Fraction(1, 4) - LAM ** 2,
        LAM ** 3 * 3 - LAM * Fraction(3, 2),
        LAM ** 2 * Fraction(35, 4) - LAM ** 4 * 12 - half,
    ]
    ok = (
        bernoulli_polynomials(5) == expected_bernoulli
        and euler_polynomials(5) == expected_euler
    )
    elapsed = time.perf_counter() - start
    _report(1, f"golden number tables n<=5, exact ({elapsed:.3f}s < 1s)", ok and elapsed < 1.0)


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    bern = bernoulli_polynomials(30)
    euler = euler_polynomials(30)
    bernoulli_rec = oracles.bernoulli_numbers_rec(30)
    euler_rec = oracles.euler_numbers_rec(30)
    families_agree = all(
        bern[n] == bernoulli_rec[n] and euler[n] == euler_rec[n]
        for n in range(31)
    )
    log = Series([ONE, ONE]).log()
    power = Series([ONE])
    stirling_agree = True
    for k in range(21):
        for n in range(k, 21):
            expected = power.egf_coefficient(n) / factorial(k)
            if Poly.const(stirling_first(n, k)) != expected:
                stirling_agree = False
        power = power * log
    elapsed = time.perf_counter() - start
    _report(
        2,
        f"series and recurrence paths agree to n=30, Stirling to n=20, exact ({elapsed:.3f}s < 5s)",
        families_agree and stirling_agree and elapsed < 5.0,
    )


def test_criterion_3_classical_limits():
    n_max = 12
    classical_b = oracles.classical_bernoulli(n_max)
    classical_e = oracles.classical_euler(n_max)
    bern = bernoulli_polynomials(n_max, X)
    euler = euler_polynomials(n_max, X)
    ok = all(
        bern[n].substitute({"λ": 0}) == classical_b[n]
        and euler[n].substitute({"λ": 0}) == classical_e[n]
        for n in range(n_max + 1)
    )
    _report(3, "λ->0 limits match the classical recurrences to n=12, exact", ok)


def test_criterion_4_full_identity_registry():
    start = time.perf_counter()
    reports = verify_all(max_n=8)
    elapsed = time.perf_counter() - start
    failures = [r.id for r in reports if not r.equal]
    ok = not failures and len(reports) == 25 and elapsed < 60.0
    _report(
        4,
        f"all {len(reports)} registered identities verify at maxN=8, exact "
        f"({elapsed:.1f}s < 60s){'; failing: ' + ', '.join(failures) if failures else ''}",
        ok,
    )


def test_criterion_5_random_variable_layer():
    ok = True
    for provider in (Uniform01(), Bernoulli(Fraction(1, 2)), Bernoulli(P)):
        seq = ShefferSequence(provider)
        for n in range(9):
            if expect_polynomial(seq.polynomial(n, X + Y), provider) != falling_factorial(X, n):
                ok = False
    coin = Bernoulli(Fraction(1, 2))
    euler = euler_polynomials(10, X)
    if ShefferSequence(coin).polynomials(10, X) != euler:
        ok = False
    for m in range(1, 6):
        seq = ShefferSequence(IidSum(coin, m))
        for n in range(11):
            if seq.polynomial(n, X) != higher_euler(n, m, X):
                ok = False
    _report(
        5,
        "expectation identity symbolic for all three providers (n<=8); "
        "coin family and its i.i.d. sums match the Euler families (m<=5, n<=10), exact",
        ok,
    )


def test_criterion_6_volkenborn_cross_check():
    n = 10
    seq = ShefferSequence(Uniform01())
    log_factor = Series([ONE, ONE]).log().div_t().scale_t(LAM)
    closed = log_factor * bernoulli_base() * degenerate_exp(X)
    ok = all(seq.polynomial(k, X) == closed.egf_coefficient(k) for k in range(n + 1))
    ok = ok and seq.polynomial(1, X) == X - Fraction(1, 2)
    _report(6, "uniform-variable family equals its closed-form series to n=10, exact", ok)


def test_criterion_7_monte_carlo_smoke(capsys):
    point = {"λ": Fraction(1, 8), "x": Fraction(1, 4)}
    provider = Uniform01()
    passes = 0
    for n in (1, 2, 3):
        target = ShefferSequence(provider).polynomial(n, X + Y)
        exact = float(falling_factorial(X, n).evaluate(point))
        result = mc_estimate(target, provider, point, 100_000, seed=42)
        z = (result.estimate - exact) / result.std_error
        if abs(z) <= 3:
            passes += 1

    args = [
        "mc", "thm3.1", "--lambda", "1/8", "--x", "1/4", "--n", "2",
        "--samples", "100000", "--seed", "42", "--format", "json",
    ]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    ok = passes >= 2 and out1.encode() == out2.encode() and code1 == code2 == 0
    _report(
        7,
        f"Monte-Carlo |z|<=3 for {passes}/3 indices at 1e5 samples; reruns byte-identical",
        ok,
    )


def test_criterion_8_fault_injection(capsys):
    case = identities.broken_case("test-corrupt")
    reports = verify_all(ids=["test-corrupt"], max_n=4, extra=[case])
    library_ok = (
        len(reports) == 1
        and not reports[0].equal
        and reports[0].mismatch is not None
        and reports[0].mismatch.n == 2
        and reports[0].mismatch.diff == Poly.const(-1)
    )
    code = main(["verify", "fault-injection", "--inject-fault", "--format", "json"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    cli_ok = code == 1 and doc["cases"][0]["equal"] is False and doc["cases"][0]["mismatch"] is not None
    _report(8, "corrupted registry entry reports its first mismatch and fails the CLI", library_ok and cli_ok)
