"""Every series-built family the CLI prints, against sympy's ``series()``.

An oracle that shares no code with ``Series``: sympy expands the closed-form
generating functions at a rational point, and n!·[tⁿ] of the expansion must
equal the package's value pinned at the same point.  With
e_λ^y(t) = (1+λt)^{y/λ}, the Bernoulli base is B = t/(e_λ^1(t) − 1), the Euler
base is E = 2/(e_λ^1(t) + 1), T^{(a,b)} has B^a·E^b·e_λ^x(t), and the Sheffer
family of Y has e_λ^x(t) over the moment series E[e_λ^Y(t)].
"""

import json
from fractions import Fraction
from math import factorial

import pytest

from degenpoly import X, bernoulli_polynomials, cli, euler_polynomials

sympy = pytest.importorskip("sympy")

N_MAX = 6
POINTS = [(lam, x) for lam in ("1/2", "1/3", "2") for x in ("0", "2/3")]
T = sympy.Symbol("t")


def _degenerate_exp(y, lam):
    return (1 + lam * T) ** (y / lam)


def _sheffer_type_gf(a, b, lam, x):
    e = _degenerate_exp(1, lam)
    return (T / (e - 1)) ** a * (2 / (e + 1)) ** b * _degenerate_exp(x, lam)


def _moment_series(spec: str, lam):
    """E[e_λ^Y(t)] for the provider specs uniform01, ber:<q> and iid:<spec>:<m>."""
    if spec.startswith("iid:"):
        base, _, copies = spec[4:].rpartition(":")
        return _moment_series(base, lam) ** int(copies)
    if spec == "uniform01":
        u = sympy.Symbol("u")
        return sympy.integrate(_degenerate_exp(u, lam), (u, 0, 1))
    q = sympy.Rational(spec.removeprefix("ber:"))
    return 1 - q + q * _degenerate_exp(1, lam)


def _egf_values(gf) -> list[Fraction]:
    expansion = sympy.series(gf, T, 0, N_MAX + 1).removeO()
    values = []
    for n in range(N_MAX + 1):
        c = sympy.Rational(expansion.coeff(T, n)) * factorial(n)
        values.append(Fraction(int(c.p), int(c.q)))
    return values


@pytest.mark.parametrize("lam, x", POINTS)
@pytest.mark.parametrize("kind, build", [("bernoulli", bernoulli_polynomials),
                                         ("euler", euler_polynomials)])
def test_family_values_match_sympy_series(kind, build, lam, x):
    pin = {"λ": Fraction(lam), "x": Fraction(x)}
    ours = [value.substitute(pin).constant_value() for value in build(N_MAX, X)]
    a, b = (1, 0) if kind == "bernoulli" else (0, 1)
    assert ours == _egf_values(_sheffer_type_gf(a, b, sympy.Rational(lam), sympy.Rational(x)))


LAM_Q, X_Q, A_Q, B_Q = "1/3", "2/9", "3/7", "5/11"


@pytest.mark.parametrize("family, flags", [
    ("higher-bernoulli", {"--a": A_Q}),
    ("higher-euler", {"--b": B_Q}),
    ("sheffer-t", {"--a": A_Q, "--b": B_Q}),
    *(("sheffer-y", {"--provider": spec})
      for spec in ("uniform01", "ber:1/4", "iid:ber:1/4:3", "iid:uniform01:2")),
], ids=lambda value: value if isinstance(value, str) else ",".join(value.values()))
def test_printed_tables_match_sympy_series(family, flags, capsys):
    argv = ["table", family, "--n", str(N_MAX), "--lambda", LAM_Q, "--x", X_Q, "--format", "json"]
    assert cli.main(argv + [item for flag in flags.items() for item in flag]) == 0
    printed = [Fraction(row["value"]) for row in json.loads(capsys.readouterr().out)["rows"]]
    lam, x = sympy.Rational(LAM_Q), sympy.Rational(X_Q)
    if family == "sheffer-y":
        gf = _degenerate_exp(x, lam) / _moment_series(flags["--provider"], lam)
    else:
        a, b = (sympy.Rational(flags.get(flag, 0)) for flag in ("--a", "--b"))
        gf = _sheffer_type_gf(a, b, lam, x)
    assert printed == _egf_values(gf)
