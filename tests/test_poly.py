import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenpoly import (
    DEGREE_LIMIT, DegreeLimitExceeded, Poly, UnboundVariable, VAR_NAMES, ZERO, ONE, LAM, X, Y, A, B,
    P,
)
from degenpoly import poly as poly_module
from degenpoly.cli import poly_latex
from degenpoly.families import Workspace
from degenpoly.poly import as_poly

from oracles import rendered, terms_add, terms_mul, terms_neg


def test_falling_product_expands():
    assert X * (X - LAM) * (X - LAM * 2) == X ** 3 - LAM * X ** 2 * 3 + LAM ** 2 * X * 2


def test_scalar_arithmetic():
    assert Poly.const(Fraction(1, 2)) * 2 == ONE
    assert LAM * 0 == ZERO
    assert ONE - 1 == ZERO
    assert (X + 1) - X == ONE


def test_constant_helpers():
    assert ZERO.is_constant() and ZERO.constant_value() == 0
    assert not (X + 1).is_constant()
    with pytest.raises(ValueError):
        (X + 1).constant_value()


def test_substitute_lambda_to_zero():
    beta2 = Fraction(1, 6) - LAM ** 2 / 6
    assert beta2.substitute({"λ": 0}) == Poly.const(Fraction(1, 6))


def test_substitute_halving():
    p = X ** 2 - LAM * X
    halved = p.substitute({"λ": LAM / 2, "x": X / 2})
    assert halved == X ** 2 / 4 - LAM * X / 4


def test_substitute_at_zero():
    beta1_x = X - Fraction(1, 2) + LAM / 2
    assert beta1_x.substitute({"x": 0}) == LAM / 2 - Fraction(1, 2)


def test_substitute_accepts_alias():
    assert LAM.substitute({"lambda": 3}) == Poly.const(3)


def test_evaluate():
    p = Fraction(1, 6) - LAM ** 2 / 6
    assert p.evaluate({"λ": 1}) == 0
    q = X - Fraction(1, 2) + LAM / 2
    assert q.evaluate({"x": Fraction(1, 2), "λ": 0}) == 0
    assert ONE.evaluate({}) == 1
    # float values are taken exactly, and the ASCII alias names λ
    assert q.evaluate({"x": 0.25, "lambda": 0.5}) == Fraction(0)
    assert (X * LAM).evaluate({"x": 0.1, "lam": 3}) == Fraction(0.1) * 3


def test_evaluate_unbound():
    with pytest.raises(UnboundVariable):
        (X + LAM).evaluate({"x": 1})
    # the first missing variable in registry order is named, whatever the term order
    with pytest.raises(UnboundVariable, match="'x'"):
        (P ** 3 + Y * X + LAM).evaluate({"lambda": 1})
    with pytest.raises(UnboundVariable, match="'y'"):
        (P + Y).evaluate({"x": 0})


def test_degree_and_coefficient_of():
    p = X ** 3 * LAM - X * 2 + 5
    assert p.degree() == 4
    assert p.degree("x") == 3
    assert p.coefficient_of("x", 3) == LAM
    assert p.coefficient_of("x", 1) == Poly.const(-2)
    assert p.coefficient_of("x", 0) == Poly.const(5)


def test_power():
    assert (X + 1) ** 2 == X ** 2 + X * 2 + 1
    assert X ** 0 == ONE
    for exponent in (-1, 1.5, Fraction(2)):
        with pytest.raises(ValueError):
            X ** exponent


def test_int_power_makes_no_product_with_one(monkeypatch):
    products, dots = [], []
    mul, dot = Poly.__mul__, Poly.dot.__func__

    def spy_mul(self, other):
        products.append((self, other))
        return mul(self, other)

    def spy_dot(cls, triples):
        dots.append(triples := list(triples))
        return dot(cls, triples)

    monkeypatch.setattr(Poly, "__mul__", spy_mul)
    monkeypatch.setattr(Poly, "dot", classmethod(spy_dot))
    assert X ** 0 is ONE
    for exponent in range(1, 40):
        products.clear()
        dots.clear()
        assert (X ** exponent).terms == {(0, exponent, 0, 0, 0, 0): 1}
        assert all(ONE not in pair for pair in products)
        # one squaring per bit above the lowest, one product per set bit after the first
        squarings, multiplications = exponent.bit_length() - 1, bin(exponent).count("1") - 1
        assert len(dots) == len(products) == squarings + multiplications


def test_str_golden():
    p = LAM ** 4 * Fraction(-19, 30) + LAM ** 2 * Fraction(2, 3) - Fraction(1, 30)
    assert str(p) == "-19/30*λ^4 + 2/3*λ^2 - 1/30"
    assert str(ZERO) == "0"
    assert str(X - 1) == "x - 1"
    assert str(-X) == "-x"


def test_parse_round_trip_examples():
    for text in [
        "-19/30*λ^4 + 2/3*λ^2 - 1/30",
        "x^3 - 3*λ*x^2 + 2*λ^2*x",
        "0",
        "1/2",
        "-x",
        "p",
    ]:
        p = Poly.parse(text)
        assert str(p) == text or Poly.parse(str(p)) == p


def test_parse_aliases_and_errors():
    assert Poly.parse("lambda^2") == LAM ** 2
    assert Poly.parse("lam") == LAM
    with pytest.raises(ValueError):
        Poly.parse("2 +")
    with pytest.raises(ValueError):
        Poly.parse("x^(2)")
    with pytest.raises(ValueError):
        Poly.parse("")


def test_parse_unknown_character():
    with pytest.raises(ValueError):
        Poly.parse("q + 1")


@pytest.mark.parametrize("text, message", [
    ("", "empty polynomial text"),
    ("2 +", "malformed polynomial text '2 +'"),
    ("x^(2)", "unexpected character '(' in polynomial 'x^(2)'"),
    ("x^1/2", "exponent must be an integer in 'x^1/2'"),
    ("x^", "exponent must be an integer in 'x^'"),
    ("*x", "malformed polynomial text '*x'"),
    ("x x", "expected '+' or '-' in polynomial text 'x x'"),
    ("q + 1", "unexpected character 'q' in polynomial 'q + 1'"),
])
def test_parse_error_messages(text, message):
    # the CLI prints these after "cannot parse ... value", so they are part of its output
    with pytest.raises(ValueError) as caught:
        Poly.parse(text)
    assert str(caught.value) == message


coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def term_maps(draw, var_names=("λ", "x"), max_terms=4, max_exp=3, coeffs=coefficients):
    indices = [VAR_NAMES.index(v) for v in var_names]
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = [0] * len(VAR_NAMES)
        for i in indices:
            exps[i] = draw(st.integers(0, max_exp))
        terms[tuple(exps)] = draw(coeffs)
    return terms


def polys(var_names=("λ", "x"), max_terms=4, max_exp=3):
    return term_maps(var_names, max_terms, max_exp).map(Poly)


def assert_canonical(p: Poly) -> None:
    """Reduced integer numerators over a denominator >= 1; zero is ({}, 1)."""
    nums, den = p._nums, p._den
    assert type(den) is int and den >= 1
    assert all(type(c) is int and c for c in nums.values())
    assert gcd(den, *nums.values()) == 1
    assert len(p.terms) == len(nums) == len(list(p.terms))


@settings(max_examples=80, deadline=None)
@given(term_maps(("λ", "x", "y")), term_maps(("λ", "x", "y")), st.integers(-6, 6).filter(bool))
def test_kernel_matches_fraction_reference(a, b, k):
    ref_a = {exps: Fraction(c) for exps, c in a.items() if c}
    ref_b = {exps: Fraction(c) for exps, c in b.items() if c}
    p, q = Poly(a), Poly(b)
    assert dict(p.terms) == ref_a and dict(q.terms) == ref_b
    cases = [
        (p * q, terms_mul(ref_a, ref_b)),
        (p + q, terms_add(ref_a, ref_b)),
        (p - q, terms_add(ref_a, terms_neg(ref_b))),
        (-p, terms_neg(ref_a)),
        (p / k, terms_mul(ref_a, {(0,) * len(VAR_NAMES): Fraction(1, k)})),
        (Poly.sum([p, q, -p]), ref_b),
    ]
    for got, want in cases:
        assert dict(got.terms) == want
        assert all(type(c) is Fraction for c in got.terms.values())
        assert_canonical(got)
    for built in (q * p, Poly(dict(reversed(list(a.items())))) * q, Poly.sum([-q, q, q]) * p):
        assert built == p * q
        assert hash(built) == hash(p * q)
    assert_canonical(Poly(a))
    assert (ZERO._nums, ZERO._den) == ({}, 1)
    assert ((p - p)._nums, (p - p)._den) == ({}, 1)


weighted_pairs = st.lists(
    st.tuples(st.integers(-6, 6), term_maps(("λ", "x", "y")), term_maps(("λ", "x", "y"))),
    max_size=4,
)


@settings(max_examples=80, deadline=None)
@given(weighted_pairs)
def test_dot_matches_weighted_fraction_reference(pairs):
    # weights include 0, and term_maps draws zero polynomials and all-zero coefficients
    triples = [(w, Poly(a), Poly(b)) for w, a, b in pairs]
    want: dict = {}
    for w, a, b in pairs:
        ref_a = {exps: Fraction(c) for exps, c in a.items() if c}
        ref_b = {exps: Fraction(c) for exps, c in b.items() if c}
        scaled = {exps: c * w for exps, c in terms_mul(ref_a, ref_b).items()}
        want = terms_add(want, scaled)
    got = Poly.dot(triples)
    assert dict(got.terms) == want
    assert_canonical(got)
    assert Poly.dot(iter(triples)) == got
    for _, p, q in triples:
        single = Poly.dot([(1, p, q)])
        assert single == p * q
        assert hash(single) == hash(p * q)


rationals = st.one_of(st.integers(-12, 12), st.fractions(-12, 12, max_denominator=12))


@settings(max_examples=120, deadline=None)
@given(polys(("λ", "x", "y", "a")), rationals)
def test_scaling_matches_the_product_kernel(p, q):
    # a rational scaling skips Poly.dot; it must still give the kernel's canonical pair
    want = Poly.dot(((1, p, Poly.const(q)),))
    for got in (p * q, q * p, p * Poly.const(q), Poly.const(q) * p):
        assert (got._nums, got._den) == (want._nums, want._den)
        assert_canonical(got)
    if q:
        got, want = p / q, Poly.dot(((1, p, Poly.const(1 / Fraction(q))),))
        assert (got._nums, got._den) == (want._nums, want._den)
        assert_canonical(got)


@given(polys(("λ", "x", "y", "a")))
def test_scaling_by_zero(p):
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            p / zero
        assert p * zero == ZERO and (p * zero)._den == 1


def test_dot_of_nothing_is_zero():
    for empty in (Poly.dot([]), Poly.dot([(0, X, Y)]), Poly.dot([(3, ZERO, X)])):
        assert empty == ZERO
        assert (empty._nums, empty._den) == ({}, 1)


@settings(max_examples=60, deadline=None)
@given(term_maps(("λ", "x", "y", "p"), max_terms=6, max_exp=4))
def test_views_match_the_tuple_terms(terms):
    p = Poly(terms)
    ref = {exps: Fraction(c) for exps, c in terms.items() if c}
    assert p.degree() == max((sum(exps) for exps in ref), default=0)
    assert p.variables() == {VAR_NAMES[i] for exps in ref for i, e in enumerate(exps) if e}
    for i, name in enumerate(VAR_NAMES):
        assert p.degree(name) == max((exps[i] for exps in ref), default=0)
        for power in range(-1, 6):
            want = {
                exps[:i] + (0,) + exps[i + 1:]: c for exps, c in ref.items() if exps[i] == power
            }
            assert dict(p.coefficient_of(name, power).terms) == want


def test_terms_view_keeps_mapping_semantics():
    p = X * 2 + 1
    one_x = (0, 1, 0, 0, 0, 0)
    assert p.terms[one_x] == 2 and one_x in p.terms
    for missing in ((0, 2, 0, 0, 0, 0), (0, DEGREE_LIMIT, 0, 0, 0, 0), (0, -1, 0, 0, 0, 0),
                    (0, 1), "x"):
        assert missing not in p.terms
        with pytest.raises(KeyError):
            p.terms[missing]


def test_degree_limit():
    top = DEGREE_LIMIT - 1
    for var in (LAM, X, P):
        assert (var ** top).degree() == top
        with pytest.raises(DegreeLimitExceeded):
            var ** DEGREE_LIMIT
    with pytest.raises(DegreeLimitExceeded):
        X ** top * (X + 1)
    with pytest.raises(DegreeLimitExceeded):
        Poly.dot([(1, X ** 40000, X ** 30000)])
    assert (X ** top * LAM ** top).degree() == 2 * top  # the limit is per variable
    assert issubclass(DegreeLimitExceeded, ValueError)
    with pytest.raises(DegreeLimitExceeded):
        Poly({(0, DEGREE_LIMIT, 0, 0, 0, 0): 1})
    with pytest.raises(ValueError):
        Poly({(0, -1, 0, 0, 0, 0): 1})
    with pytest.raises(DegreeLimitExceeded):
        Poly.parse(f"x^{DEGREE_LIMIT}")
    assert Poly({(0, top, 0, 0, 0, 0): 1}) == X ** top


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p
    assert p * ONE == p


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_substitution_is_a_homomorphism(p, q):
    mapping = {"x": LAM + 1, "λ": Y * 2}
    assert (p * q).substitute(mapping) == p.substitute(mapping) * q.substitute(mapping)
    assert (p + q).substitute(mapping) == p.substitute(mapping) + q.substitute(mapping)


@settings(max_examples=30, deadline=None)
@given(polys())
def test_substitute_identity_map(p):
    assert p.substitute({"x": X, "λ": LAM}) == p
    assert p.substitute({}) == p


@settings(max_examples=30, deadline=None)
@given(polys(var_names=("λ", "x", "y")))
def test_canonical_construction_order(p):
    pieces = [Poly({exps: c}) for exps, c in p.terms.items()]
    random.Random(0).shuffle(pieces)
    total = ZERO
    for piece in pieces:
        total = total + piece
    summed = Poly.sum(pieces)
    for built in (total, summed):
        assert built == p
        assert hash(built) == hash(p)
        assert str(built) == str(p)
    for zero in (Poly.sum([]), Poly.sum([p, -p])):
        assert zero == ZERO
        assert not zero.terms


# units, small fractions and numerators far past 64 bits
_TEXT_COEFFS = st.one_of(
    st.sampled_from((1, -1)),
    coefficients,
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 30)),
)
_CONSTANT = (0,) * len(VAR_NAMES)


@settings(max_examples=150, deadline=None)
@given(term_maps(VAR_NAMES, max_terms=5, max_exp=3, coeffs=_TEXT_COEFFS))
@example({})
@example({_CONSTANT: 1})
@example({_CONSTANT: -1})
@example({_CONSTANT: Fraction(-7, 3)})
@example({(0, 1, 0, 0, 0, 0): -1, _CONSTANT: 1})
@example({(2, 0, 0, 0, 0, 1): Fraction(-3, 4), (0, 0, 1, 1, 1, 0): 1, _CONSTANT: -10 ** 30})
def test_text_matches_the_tuple_walk(terms):
    """Both spellings of the packed-key walk against the walk over exponent tuples and Fractions."""
    p = Poly(terms)
    assert str(p) == rendered(p)
    assert poly_latex(p) == rendered(p, latex=True)


def test_rendering_builds_no_fraction_and_no_exponent_tuple(monkeypatch):
    values = Workspace().hybrid(A, B, X).egf_coefficients(9)
    calls = []

    def spy(real):
        def counted(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(poly_module, "Fraction", spy(Fraction))
    monkeypatch.setattr(poly_module, "_unpack", spy(poly_module._unpack))
    for value in values:
        str(value), poly_latex(value)
    assert calls == []
    list(values[9].terms)  # the tuple view unpacks every key, so the spy is live
    assert calls == ["_unpack"] * len(values[9].terms)


@settings(max_examples=40, deadline=None)
@given(polys())
def test_text_round_trip(p):
    assert Poly.parse(str(p)) == p


def test_as_poly_coercion():
    assert as_poly(3) == Poly.const(3)
    assert as_poly(Fraction(2, 5)) == Poly.const(Fraction(2, 5))
    assert as_poly(P) is P
    with pytest.raises(TypeError):
        as_poly(0.5)
