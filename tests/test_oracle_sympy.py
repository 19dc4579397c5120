"""Degenerate Bernoulli and Euler values against sympy's ``series()``.

An oracle that shares no code with ``Series``: sympy expands the closed-form
generating functions at a rational λ and x, and n!·[tⁿ] of the expansion
must equal the package's value pinned at the same point.
"""

from fractions import Fraction
from math import factorial

import pytest

from degenpoly import X, bernoulli_polynomials, euler_polynomials

sympy = pytest.importorskip("sympy")

N_MAX = 6
POINTS = [(lam, x) for lam in ("1/2", "1/3", "2") for x in ("0", "2/3")]


def _sympy_values(kind: str, lam: str, x: str) -> list[Fraction]:
    t = sympy.Symbol("t")
    lam_q, x_q = sympy.Rational(lam), sympy.Rational(x)
    e = (1 + lam_q * t) ** (1 / lam_q)
    if kind == "bernoulli":
        gf = t / (e - 1) * (1 + lam_q * t) ** (x_q / lam_q)
    else:
        gf = 2 / (e + 1) * (1 + lam_q * t) ** (x_q / lam_q)
    expansion = sympy.series(gf, t, 0, N_MAX + 1).removeO()
    values = []
    for n in range(N_MAX + 1):
        c = sympy.Rational(expansion.coeff(t, n)) * factorial(n)
        values.append(Fraction(int(c.p), int(c.q)))
    return values


@pytest.mark.parametrize("lam, x", POINTS)
@pytest.mark.parametrize("kind, build", [("bernoulli", bernoulli_polynomials),
                                         ("euler", euler_polynomials)])
def test_family_values_match_sympy_series(kind, build, lam, x):
    pin = {"λ": Fraction(lam), "x": Fraction(x)}
    ours = [value.substitute(pin).constant_value() for value in build(N_MAX, X)]
    assert ours == _sympy_values(kind, lam, x)

