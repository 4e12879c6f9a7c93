"""Exact sparse multivariate Laurent polynomials over the integers.

A ring is a fixed tuple of variable names.  For a braid computation on n
strands the ring has 2n variables t1..tn, s1..sn; the classical Burau
representation reuses the same engine with the single variable t.

Polynomials are stored as a map from exponent vectors (tuples of signed
ints, one slot per ring variable) to nonzero integer coefficients.
Coefficients are Python ints, so they never overflow; specialisation maps
into fractions.Fraction so that negative exponents are always evaluable.
Values are immutable after construction and safe to share.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_RING_CACHE = {}


class LaurentRing:
    """An integer Laurent-polynomial ring with a fixed ordered variable set."""

    __slots__ = ("names", "index")

    def __init__(self, names):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self.index = {name: i for i, name in enumerate(self.names)}

    @classmethod
    def for_strands(cls, n):
        """The ring in variables t1..tn, s1..sn used by the n-strand representation."""
        if n < 1:
            raise ValueError("strand count must be positive")
        key = ("strands", n)
        if key not in _RING_CACHE:
            names = tuple(f"t{i}" for i in range(1, n + 1)) + tuple(
                f"s{i}" for i in range(1, n + 1)
            )
            _RING_CACHE[key] = cls(names)
        return _RING_CACHE[key]

    @classmethod
    def burau(cls):
        """The one-variable ring Z[t, t^-1]."""
        if "burau" not in _RING_CACHE:
            _RING_CACHE["burau"] = cls(("t",))
        return _RING_CACHE["burau"]

    @property
    def nvars(self):
        return len(self.names)

    @property
    def strands(self):
        """Strand count when this is a for_strands ring (2n variables)."""
        return len(self.names) // 2

    def __eq__(self, other):
        return isinstance(other, LaurentRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"LaurentRing({', '.join(self.names)})"

    def zero(self):
        return LaurentPoly(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        if c == 0:
            return self.zero()
        return LaurentPoly(self, {(0,) * self.nvars: int(c)})

    def monomial(self, coeff, exponents):
        """coeff * prod(var_i ** exponents[i]); exponents may be a dict keyed by name."""
        if isinstance(exponents, dict):
            vec = [0] * self.nvars
            for name, e in exponents.items():
                if name not in self.index:
                    raise ValueError(f"unknown variable {name!r}")
                vec[self.index[name]] = int(e)
            exponents = tuple(vec)
        else:
            exponents = tuple(int(e) for e in exponents)
            if len(exponents) != self.nvars:
                raise ValueError("exponent vector has wrong length")
        if coeff == 0:
            return self.zero()
        return LaurentPoly(self, {exponents: int(coeff)})

    def var(self, name, power=1):
        if name not in self.index:
            raise ValueError(f"unknown variable {name!r}")
        return self.monomial(1, {name: power})

    # Text grammar:  poly := term (" + " term)* | "0"
    #                term := [coeff "*"] factor ("*" factor)*  |  coeff
    #                factor := var ["^" signed-int]
    # Canonical output folds "-" into the coefficient, so "-t1" and "-2"
    # are accepted as terms.
    def parse(self, text):
        if not isinstance(text, str):
            raise ParseError("expected a string", 0)
        stripped = text.strip()
        if not stripped:
            raise ParseError("empty polynomial text", 0)
        result = self.zero()
        pos = 0
        for chunk in text.split("+"):
            result = result + self._parse_term(chunk, pos)
            pos += len(chunk) + 1
        return result

    _TOKEN_RE = re.compile(r"\s*(-?\d+|[A-Za-z]\d*|\^|\*|-)\s*")

    def _parse_term(self, chunk, base):
        tokens = []
        pos = 0
        while pos < len(chunk):
            m = self._TOKEN_RE.match(chunk, pos)
            if not m:
                raise ParseError(f"unexpected character {chunk[pos]!r}", base + pos)
            tokens.append((m.group(1), base + m.start(1)))
            pos = m.end()
        if not tokens:
            raise ParseError("empty term", base)

        coeff = 1
        saw_coeff = False
        i = 0
        if re.fullmatch(r"-?\d+", tokens[0][0]):
            coeff = int(tokens[0][0])
            saw_coeff = True
            i = 1
            if i < len(tokens):
                if tokens[i][0] != "*":
                    raise ParseError("expected '*' after coefficient", tokens[i][1])
                i += 1
                if i >= len(tokens):
                    raise ParseError("dangling '*'", tokens[i - 1][1])
        elif tokens[0][0] == "-":
            # canonical output folds the sign of a -1 coefficient: "-t1"
            coeff = -1
            i = 1

        vec = [0] * self.nvars
        saw_factor = False
        while i < len(tokens):
            name, namepos = tokens[i]
            if not re.fullmatch(r"[A-Za-z]\d*", name):
                raise ParseError(f"expected a variable, got {name!r}", namepos)
            if name not in self.index:
                if re.fullmatch(r"[ts]\d+", name) and "t1" in self.index:
                    raise ParseError(
                        f"variable index out of range 1..{self.strands}: {name!r}",
                        namepos,
                    )
                raise ParseError(f"unknown variable {name!r}", namepos)
            i += 1
            power = 1
            if i < len(tokens) and tokens[i][0] == "^":
                i += 1
                if i >= len(tokens) or not re.fullmatch(r"-?\d+", tokens[i][0]):
                    raise ParseError(
                        "expected an integer exponent after '^'", tokens[i - 1][1]
                    )
                power = int(tokens[i][0])
                i += 1
            vec[self.index[name]] += power
            saw_factor = True
            if i < len(tokens):
                if tokens[i][0] != "*":
                    raise ParseError("expected '*' between factors", tokens[i][1])
                i += 1
                if i >= len(tokens):
                    raise ParseError("dangling '*'", tokens[i - 1][1])

        if not saw_factor and not saw_coeff:
            raise ParseError("empty term", base)
        return self.monomial(coeff, tuple(vec))


class LaurentPoly:
    """Immutable sparse Laurent polynomial; use ring factories to construct."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c != 0}

    def _check(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if other.ring != self.ring:
            raise ValueError("polynomials belong to different rings")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return LaurentPoly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return LaurentPoly(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(0,) * self.ring.nvars: 1}

    def is_constant(self):
        return all(all(e == 0 for e in vec) for vec in self.terms)

    def monomial_inverse(self):
        """Inverse of a unit monomial (single term, coefficient +-1)."""
        if len(self.terms) != 1:
            raise ValueError("only single-term polynomials are invertible")
        (vec, coeff), = self.terms.items()
        if coeff not in (1, -1):
            raise ValueError("only coefficients +1/-1 are invertible over Z")
        return LaurentPoly(self.ring, {tuple(-e for e in vec): coeff})

    def eval(self, assignment):
        """Exact rational value under a variable -> nonzero rational map."""
        values = []
        for name in self.ring.names:
            if name not in assignment:
                raise ValueError(f"missing assignment for variable {name!r}")
            v = Fraction(assignment[name])
            if v == 0:
                raise ValueError(
                    f"variable {name!r} assigned zero; variables are units"
                )
            values.append(v)
        total = Fraction(0)
        for vec, coeff in self.terms.items():
            term = Fraction(coeff)
            for v, e in zip(values, vec):
                if e:
                    term *= v ** e
            total += term
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for vec in sorted(self.terms, reverse=True):
            coeff = self.terms[vec]
            factors = []
            for name, e in zip(self.ring.names, vec):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            elif coeff == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{coeff}*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<LaurentPoly {self}>"


def rational_str(value):
    """Canonical "p/q" (or "p") form used in numeric matrix JSON."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
