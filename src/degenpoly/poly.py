"""Exact multivariate polynomial arithmetic over rational coefficients.

Polynomials live in Q[λ, x, y, a, b, p] with a fixed, ordered variable
registry.  Terms are stored as a map from packed exponent keys to nonzero
integer numerators over one common denominator.  The pair is kept reduced
(denominator ≥ 1, no common factor of the denominator and all numerators),
so mathematical equality of polynomials coincides with structural equality
of the pairs.

A packed key is one ``int``: a field of ``FIELD_BITS`` bits per registry
variable, λ in the highest, and the total degree above them all.  The
product of two monomials is then the sum of their keys, and comparing keys
as ints is the canonical print order.  Each field keeps its top bit clear as
a guard, so every exponent stays below ``DEGREE_LIMIT``; a product that
would reach it raises ``DegreeLimitExceeded``.  Exponent tuples appear only
at the view boundaries (``terms`` and the constructor).

Every product of two non-constant polynomials goes through ``Poly.dot``,
which accumulates integer-weighted products over the common denominator and
reduces once.  A rational scaling (by an ``int``, a ``Fraction`` or a
constant) is one pass over the numerators.  All term additions go through
``Poly.sum``.

The canonical term order used for printing is graded lexicographic over the
registry order (λ before x before y before a before b before p), highest
terms first.  ``Poly.render`` is the one walk in that order: it reads the
packed keys and the integer numerators, and ``str`` and the CLI's LaTeX are
two spellings passed to it.  ``str`` and ``Poly.parse`` are mutual inverses
on the canonical form, which is what the CLI golden files and the JSON
round-trip rely on.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

VAR_NAMES: tuple[str, ...] = ("λ", "x", "y", "a", "b", "p")
NVARS = len(VAR_NAMES)

_VAR_INDEX = {name: i for i, name in enumerate(VAR_NAMES)}
# ASCII spellings accepted on input (CLI flags, config files, parsing).
_VAR_ALIASES = {"lambda": "λ", "lam": "λ"}

# Packed exponent keys: FIELD_BITS bits per variable, the top one a guard.
FIELD_BITS = 17
DEGREE_LIMIT = 1 << (FIELD_BITS - 1)  # every exponent is below this
_FIELD_MASK = DEGREE_LIMIT - 1
_SHIFTS = tuple(FIELD_BITS * (NVARS - 1 - i) for i in range(NVARS))  # λ highest
_DEG_SHIFT = FIELD_BITS * NVARS  # the total degree sits above every field
_GUARDS = sum(DEGREE_LIMIT << s for s in _SHIFTS)

Scalar = Union[int, Fraction]
PolyLike = Union["Poly", int, Fraction]


class UnboundVariable(Exception):
    """A variable occurring in a polynomial was not assigned a value."""


class DegreeLimitExceeded(ValueError):
    """An exponent would reach ``DEGREE_LIMIT``, past what a packed key holds."""


def canonical_var(name: str) -> str:
    """Resolve a variable name (or alias) to its registry spelling."""
    name = _VAR_ALIASES.get(name, name)
    if name not in _VAR_INDEX:
        raise KeyError(f"unknown variable {name!r}; registry is {VAR_NAMES}")
    return name


def _pack(exps: tuple[int, ...]) -> int:
    """The packed key of an exponent tuple (one entry per registry variable)."""
    if len(exps) != NVARS:
        raise ValueError(f"an exponent tuple needs {NVARS} entries, got {exps!r}")
    key = 0
    for e in exps:
        if e < 0:
            raise ValueError(f"negative exponent in {exps!r}")
        if e >= DEGREE_LIMIT:
            raise DegreeLimitExceeded(f"exponent {e} reaches the degree limit {DEGREE_LIMIT}")
        key = key << FIELD_BITS | e
    return key | sum(exps) << _DEG_SHIFT


def _unpack(key: int) -> tuple[int, ...]:
    return tuple([key >> s & _FIELD_MASK for s in _SHIFTS])


def _plain_fraction(num: int, den: int) -> str:
    """The plain-text spelling of a reduced magnitude: ``num`` or ``num/den``."""
    return f"{num}/{den}" if den != 1 else str(num)


class _Terms(Mapping):
    """Read-only view of a polynomial's terms as exact ``Fraction`` coefficients.

    Keys are exponent tuples, unpacked on iteration; a ``Fraction`` is built
    only when a coefficient is read.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, nums: dict[int, int], den: int):
        self._nums = nums
        self._den = den

    def __getitem__(self, exps: tuple[int, ...]) -> Fraction:
        try:
            return Fraction(self._nums[_pack(exps)], self._den)
        except (KeyError, TypeError, ValueError):
            raise KeyError(exps) from None

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return map(_unpack, self._nums)

    def __len__(self) -> int:
        return len(self._nums)


class Poly:
    """Immutable polynomial in the registry variables with rational coefficients.

    Instances are canonical (reduced integer numerators over a denominator
    ≥ 1, no zero numerator; zero is ``({}, 1)``) and hashable; all
    operations are pure and return new values, so sharing across threads
    is safe.
    """

    __slots__ = ("_nums", "_den", "_hash")

    def __init__(self, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        coeffs = {_pack(exps): Fraction(c) for exps, c in terms.items()} if terms else {}
        den = lcm(*(c.denominator for c in coeffs.values()))
        nums = {key: c.numerator * (den // c.denominator) for key, c in coeffs.items()}
        made = Poly._make(nums, den)
        self._nums, self._den, self._hash = made._nums, made._den, None

    @classmethod
    def _make(cls, nums: dict[int, int], den: int) -> "Poly":
        """Trusted constructor: drop zero numerators and divide out the common factor.

        ``den`` must be positive; ``nums`` is taken over, not copied.
        """
        if 0 in nums.values():
            nums = {key: c for key, c in nums.items() if c}
        if not nums:
            den = 1
        elif den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                nums = {key: c // g for key, c in nums.items()}
                den //= g
        self = object.__new__(cls)
        self._nums, self._den, self._hash = nums, den, None
        return self

    @classmethod
    def const(cls, value: Scalar) -> "Poly":
        value = Fraction(value)
        return cls._make({0: value.numerator}, value.denominator)

    @classmethod
    def var(cls, name: str) -> "Poly":
        shift = _SHIFTS[_VAR_INDEX[canonical_var(name)]]
        return cls._make({1 << shift | 1 << _DEG_SHIFT: 1}, 1)

    # -- basic structure ---------------------------------------------------

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        return _Terms(self._nums, self._den)

    def __bool__(self) -> bool:
        return bool(self._nums)

    def is_constant(self) -> bool:
        return not self._nums or self._nums.keys() == {0}

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises if non-constant)."""
        if not self._nums:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self._nums[0], self._den)

    def variables(self) -> set[str]:
        used = reduce(or_, self._nums, 0)
        return {name for name, s in zip(VAR_NAMES, _SHIFTS) if used >> s & _FIELD_MASK}

    def degree(self, var: str | None = None) -> int:
        """Total degree, or the degree in one variable.  Zero poly has degree 0."""
        if not self._nums:
            return 0
        if var is None:
            return max(self._nums) >> _DEG_SHIFT
        s = _SHIFTS[_VAR_INDEX[canonical_var(var)]]
        return max(key >> s & _FIELD_MASK for key in self._nums)

    def coefficient_of(self, var: str, power: int) -> Poly:
        """Collect the terms with the given power of ``var``, dropping that factor."""
        s = _SHIFTS[_VAR_INDEX[canonical_var(var)]]
        drop = power << s | power << _DEG_SHIFT
        return Poly._make(
            {key - drop: num for key, num in self._nums.items() if key >> s & _FIELD_MASK == power},
            self._den,
        )

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Poly | None":
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction)):
            return Poly.const(value)
        return None

    @classmethod
    def sum(cls, polys: Iterable["Poly"]) -> "Poly":
        """Add over the common denominator and reduce once; all term addition is here."""
        polys = list(polys)
        den = lcm(*(p._den for p in polys))
        out: dict[int, int] = {}
        get = out.get
        for p in polys:
            scale = den // p._den
            for key, num in p._nums.items():
                out[key] = get(key, 0) + num * scale
        return cls._make(out, den)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._make({key: -num for key, num in self._nums.items()}, self._den)

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    @classmethod
    def dot(cls, triples: Iterable[tuple[int, "Poly", "Poly"]]) -> "Poly":
        """The sum of ``w * f * g`` over integer-weighted pairs; all non-scalar products are here.

        Every product is accumulated over the common denominator of the
        pairs, and the result is reduced once.  A product key is the sum of
        its factors' keys; one that sets a guard bit raises
        ``DegreeLimitExceeded``.
        """
        triples = [t for t in triples if t[0]]
        den = lcm(*(f._den * g._den for _, f, g in triples))
        out: dict[int, int] = {}
        get = out.get
        for w, f, g in triples:
            scale = w * (den // (f._den * g._den))
            if len(f._nums) > len(g._nums):
                f, g = g, f
            g_items = g._nums.items()
            for ka, na in f._nums.items():
                na *= scale
                for kb, nb in g_items:
                    key = ka + kb
                    out[key] = get(key, 0) + na * nb
        if reduce(or_, out, 0) & _GUARDS:
            raise DegreeLimitExceeded(f"a product reaches the degree limit {DEGREE_LIMIT}")
        return cls._make(out, den)

    def _scale(self, num: int, den: int) -> "Poly":
        """``self * num/den`` for a reduced ``num/den``, ``den`` ≥ 1, in one pass over the terms.

        ``num`` can cancel only ``self._den``, and ``den`` only the numerators.
        """
        if not num or not self._nums:
            return ZERO
        g = gcd(num, self._den)
        num, out_den, nums = num // g, self._den // g * den, self._nums
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                nums = {key: c // g for key, c in nums.items()}
                out_den //= g
        out = object.__new__(Poly)
        out._nums, out._den, out._hash = {key: c * num for key, c in nums.items()}, out_den, None
        return out

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            if not other.is_constant():
                if not self.is_constant():
                    return Poly.dot(((1, self, other),))
                self, other = other, self
            return self._scale(other._nums.get(0, 0), other._den)
        if isinstance(other, (int, Fraction)):
            return self._scale(other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError(f"division of {self} by zero")
            num, den = other.numerator, other.denominator
            return self._scale(den, num) if num > 0 else self._scale(-den, -num)
        return NotImplemented

    def __pow__(self, exponent: int) -> "Poly":
        return int_power(self, exponent, ONE)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._den, frozenset(self._nums.items())))
        return self._hash

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, assignments: Mapping[str, PolyLike]) -> "Poly":
        """Simultaneously substitute polynomials for variables.

        Unassigned variables are left in place.  Substitution is a ring
        homomorphism: ``(p*q).substitute(s) == p.substitute(s) * q.substitute(s)``.
        """
        amap: dict[int, Poly] = {}  # field shift -> replacement
        for name, value in assignments.items():
            replacement = self._coerce(value)
            if replacement is None:
                raise TypeError(f"cannot substitute value of type {type(value)!r}")
            amap[_SHIFTS[_VAR_INDEX[canonical_var(name)]]] = replacement
        # group the terms by their exponents in the substituted variables
        mask = sum(_FIELD_MASK << s for s in amap)
        groups: dict[int, dict[int, int]] = {}
        for key, num in self._nums.items():
            part = key & mask
            group = groups.get(part)
            if group is None:
                group = groups[part] = {}
            group[key] = num
        powers: dict[tuple[int, int], Poly] = {}
        triples = []
        for part, nums in groups.items():
            factor, degree = ONE, 0
            for s, base in amap.items():
                e = part >> s & _FIELD_MASK
                if e:
                    power = powers.get((s, e))
                    if power is None:
                        power = powers[(s, e)] = base ** e
                    factor = factor * power
                    degree += e
            drop = part | degree << _DEG_SHIFT
            rest = Poly._make({key - drop: num for key, num in nums.items()}, self._den)
            triples.append((1, rest, factor))
        return Poly.dot(triples)

    def evaluate(self, point: Mapping[str, Scalar | float]) -> Fraction:
        """Exact value at a fully specified point; a float value is taken exactly.

        Raises ``UnboundVariable``, naming the first in registry order, if a
        variable of the polynomial is missing from ``point``.
        """
        values = {canonical_var(name): Fraction(v) for name, v in point.items()}
        used = self.variables()
        for name in VAR_NAMES:
            if name in used and name not in values:
                raise UnboundVariable(f"variable {name!r} has no assigned value")
        return self.substitute(values).constant_value()

    # -- canonical text form -------------------------------------------------

    def render(self, fraction: Callable[[int, int], str], names: Sequence[str], power: str,
               times: str) -> str:
        """Walk the packed keys in descending order with the shared sign and unit rules.

        A spelling is four parts: ``fraction(num, den)`` spells a positive reduced
        magnitude, ``names`` the registry variables in order, ``power`` formats a name
        and an exponent above 1, and ``times`` joins the factors of a term.  A
        magnitude of 1 in front of a monomial is omitted.
        """
        if not self._nums:
            return "0"
        nums, den = self._nums, self._den
        fields = tuple(zip(_SHIFTS, names))
        pieces: list[str] = []
        for key in sorted(nums, reverse=True):
            num = nums[key]
            mag = -num if num < 0 else num
            factors = []
            if mag != den or not key:
                g = gcd(mag, den)
                factors.append(fraction(mag // g, den // g))
            for s, name in fields:
                e = key >> s & _FIELD_MASK
                if e:
                    factors.append(name if e == 1 else power.format(name, e))
            pieces.append(("- " if num < 0 else "+ ") + times.join(factors))
        text = " ".join(pieces)
        # the leading sign is written on its term, and a leading "+" not at all
        return "-" + text[2:] if text[0] == "-" else text[2:]

    def __str__(self) -> str:
        return self.render(_plain_fraction, VAR_NAMES, "{}^{}", "*")

    def __repr__(self) -> str:
        return f"Poly({self})"

    _TOKEN = re.compile(
        r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>λ|lambda|lam|[xyabp])|(?P<op>[*^+-])|(?P<bad>\S))"
    )

    @classmethod
    def parse(cls, text: str) -> "Poly":
        """Parse the canonical text form (inverse of ``str``).

        Accepts sums of terms ``coeff*var^e*...`` with optional signs,
        integer or num/den coefficients, and the ``lambda``/``lam`` aliases.
        """
        tokens: list[tuple[str | None, str | None]] = []
        for m in cls._TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise ValueError(f"unexpected character {m.group('bad')!r} in polynomial {text!r}")
            tokens.append((kind, m.group(kind)))
        if not tokens:
            raise ValueError("empty polynomial text")
        tokens.append((None, None))  # the end: no token reads past it
        # an optional leading sign, then factors joined by '*' into terms joined by '+' or '-'
        sign, i = 1, 0
        if tokens[0][1] in ("+", "-"):
            sign, i = (-1 if tokens[0][1] == "-" else 1), 1
        terms: list[Poly] = []
        term = None
        while True:
            kind, value = tokens[i]
            if kind == "num":
                factor = cls.const(Fraction(value))
            elif kind == "var":
                factor = cls.var(value)
                if tokens[i + 1] == ("op", "^"):
                    kind, value = tokens[i + 2]
                    if kind != "num" or "/" in value:
                        raise ValueError(f"exponent must be an integer in {text!r}")
                    factor = factor ** int(value)
                    i += 2
            else:
                raise ValueError(f"malformed polynomial text {text!r}")
            term = factor if term is None else term * factor
            kind, value = tokens[i + 1]
            i += 2
            if value == "*":
                continue
            terms.append(term * sign)
            term = None
            if kind is None:
                return cls.sum(terms)
            if value not in ("+", "-"):
                raise ValueError(f"expected '+' or '-' in polynomial text {text!r}")
            sign = -1 if value == "-" else 1


def int_power(base, exponent: int, one):
    """``base`` to the power ``exponent`` by square-and-multiply (TAOCP §4.6.3); ``one`` is 1.

    The result starts at the power of ``base`` for the lowest set bit, so no
    product with ``one`` is made.
    """
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError(f"powers need a non-negative integer exponent, got {exponent!r}")
    if not exponent:
        return one
    while not exponent & 1:
        base = base * base
        exponent >>= 1
    result = base
    exponent >>= 1
    while exponent:
        base = base * base
        if exponent & 1:
            result = result * base
        exponent >>= 1
    return result


def as_poly(value: PolyLike) -> Poly:
    """Coerce an int or Fraction to a constant polynomial."""
    coerced = Poly._coerce(value)
    if coerced is None:
        raise TypeError(f"cannot interpret {value!r} as a polynomial")
    return coerced


ZERO = Poly()
ONE = Poly.const(1)
LAM = Poly.var("λ")
X = Poly.var("x")
Y = Poly.var("y")
A = Poly.var("a")
B = Poly.var("b")
P = Poly.var("p")
