"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the library's production code paths:
classical polynomial families and the degenerate Bernoulli and Euler
numbers come from their own recurrences, series logarithms from the
alternating-power composition formula, binomial series from the explicit
product, polynomial ring operations from a plain map of ``Fraction``
coefficients, canonical text from exponent tuples and ``Fraction``
coefficients, and Monte-Carlo draws from one generator in copy-major
order.  Expected values asserted in the tests were computed with these.

The last two helpers are not oracles, and only tests read them:
``independent_sum_moments`` multiplies the library's moment series, and
``sample_chunks`` draws through the providers' ``sample_array`` from PCG64
streams it builds itself, sharing no code with the Monte-Carlo sampler.
"""

from fractions import Fraction
from math import comb, factorial

from degenpoly import (
    Bernoulli, CustomMoments, IidSum, MomentProvider, Poly, Series, Uniform01, VAR_NAMES, ONE, ZERO,
    X, A, falling_factorial,
)
from degenpoly.randvar import CHUNK


def classical_bernoulli(n_max: int) -> list[Poly]:
    """Classical Bernoulli polynomials via B_m(x) = x^m - sum C(m+1,k) B_k(x)/(m+1)."""
    out: list[Poly] = []
    for m in range(n_max + 1):
        value = X ** m
        acc = ZERO
        for k in range(m):
            acc = acc + out[k] * comb(m + 1, k)
        out.append(value - acc / (m + 1))
    return out


def classical_euler(n_max: int) -> list[Poly]:
    """Classical Euler polynomials via E_m(x) = x^m - (1/2) sum C(m,k) E_k(x)."""
    out: list[Poly] = []
    for m in range(n_max + 1):
        acc = ZERO
        for k in range(m):
            acc = acc + out[k] * comb(m, k)
        out.append(X ** m - acc / 2)
    return out


# The degenerate number sequences are pinned down by the relations
#     sum_{k<n} C(n,k) * B_k * (1)_{n-k,λ} = [n == 1]      (B_0 = 1)
#     2*E_n + sum_{k<n} C(n,k) * E_k * (1)_{n-k,λ} = 2*[n == 0]
# obtained by binomially expanding the shifted sequence and replacing each
# formal power with the number of that index.  At relation index n the
# highest number not yet determined is B_{n-1} (its coefficient on the left
# is n) respectively E_n (coefficient 2), so each relation is solved for
# that number.


def bernoulli_numbers_rec(n_max: int) -> list[Poly]:
    """Degenerate Bernoulli numbers B_0..B_{n_max} by recurrence, independent of the series path."""
    falling_one = [falling_factorial(ONE, j) for j in range(n_max + 2)]
    out: list[Poly] = [ONE]
    for n in range(1, n_max + 1):
        m = n + 1
        acc = ZERO
        for k in range(n):
            acc = acc + out[k] * falling_one[m - k] * comb(m, k)
        out.append(acc / (-m))
    return out


def euler_numbers_rec(n_max: int) -> list[Poly]:
    """Degenerate Euler numbers E_0..E_{n_max} by recurrence, independent of the series path."""
    falling_one = [falling_factorial(ONE, j) for j in range(n_max + 1)]
    out: list[Poly] = [ONE]
    for n in range(1, n_max + 1):
        acc = ZERO
        for k in range(n):
            acc = acc + out[k] * falling_one[n - k] * comb(n, k)
        out.append(acc / (-2))
    return out


def log_by_composition(series: Series, n_max: int) -> list[Poly]:
    """Exponential coefficients 0..n_max of log F, as sum_{k>=1} (-1)^(k-1) (F-1)^k / k."""
    u = series - Series([ONE])
    total = Series([ZERO])
    power = Series([ONE])
    for k in range(1, n_max + 1):
        power = power * u
        total = total + power * Fraction((-1) ** (k - 1), k)
    return total.egf_coefficients(n_max)


def exp_by_powers(series: Series, n_max: int) -> list[Poly]:
    """Exponential coefficients 0..n_max of exp u, as sum_k u^k / k!."""
    total = Series([ONE])
    power = Series([ONE])
    for k in range(1, n_max + 1):
        power = power * series
        total = total + power * Fraction(1, factorial(k))
    return total.egf_coefficients(n_max)


# The Fraction-dict polynomial kernel: a term map from exponent tuples to
# nonzero Fraction coefficients, with one Fraction operation per term pair.


def terms_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(i + j for i, j in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {exps: c for exps, c in out.items() if c}


def terms_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for exps, c in b.items():
        out[exps] = out.get(exps, Fraction(0)) + c
    return {exps: c for exps, c in out.items() if c}


def terms_neg(a: dict) -> dict:
    return {exps: -c for exps, c in a.items()}


def rendered(p: Poly, latex: bool = False) -> str:
    """``str(p)``, or ``cli.poly_latex(p)`` with ``latex``, from the exponent tuples of ``p.terms``.

    Terms go in descending graded order, by total degree and then by the tuple;
    each is spelled from its ``Fraction`` coefficient.
    """
    names = ("\\lambda", *VAR_NAMES[1:]) if latex else VAR_NAMES
    pieces: list[str] = []
    for exps, coeff in sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
        mag = abs(coeff)
        if mag.denominator == 1:
            number = str(mag.numerator)
        elif latex:
            number = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        else:
            number = f"{mag.numerator}/{mag.denominator}"
        factors = [] if mag == 1 and any(exps) else [number]
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{{{e}}}" if latex else f"{name}^{e}")
        body = (" " if latex else "*").join(factors)
        if not pieces:
            pieces.append("-" + body if coeff < 0 else body)
        else:
            pieces.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(pieces) if pieces else "0"


def binomial_coefficient_poly(n: int) -> Poly:
    """C(a, n) as a polynomial in a: a(a-1)...(a-n+1)/n!."""
    prod = ONE
    for k in range(n):
        prod = prod * (A - k)
    return prod / factorial(n)


def copy_major_draws(provider, rng, size: int):
    """Draws of a samplable provider in the unchunked layout: one generator
    fills the full array of each copy in turn, and the copies are added in order."""
    if isinstance(provider, IidSum):
        total = copy_major_draws(provider.base, rng, size)
        for _ in range(provider.m - 1):
            total += copy_major_draws(provider.base, rng, size)
        return total
    uniform = rng.random(size)
    if isinstance(provider, Bernoulli):
        return (uniform < float(provider.p.constant_value())).astype(float)
    assert isinstance(provider, Uniform01)
    return uniform


def independent_sum_moments(first: MomentProvider, second: MomentProvider, n_max: int) -> CustomMoments:
    """Moment table of the sum of two independent variables: their moment series multiply."""
    return CustomMoments((first.mgf() * second.mgf()).egf_coefficients(n_max))


def sample_chunks(provider: MomentProvider, samples: int, seed: int):
    """The provider's ``samples`` draws, in order, as arrays of at most CHUNK values.

    Column c draws from its own PCG64(seed) advanced by c * samples draws.
    """
    import numpy as np

    streams = [np.random.Generator(np.random.PCG64(seed).advance(c * samples))
               for c in range(provider.columns)]
    for start in range(0, samples, CHUNK):
        yield provider.sample_array(streams, min(CHUNK, samples - start))
