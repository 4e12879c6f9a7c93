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

from fractions import Fraction
from operator import add


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
        """coeff * prod(name ** e for name, e in exponents.items())."""
        vec = [0] * self.nvars
        for name, e in exponents.items():
            if name not in self.index:
                raise ValueError(f"unknown variable {name!r}")
            vec[self.index[name]] = int(e)
        if coeff == 0:
            return self.zero()
        return LaurentPoly(self, {tuple(vec): int(coeff)})

    def var(self, name, power=1):
        if name not in self.index:
            raise ValueError(f"unknown variable {name!r}")
        return self.monomial(1, {name: power})


class LaurentPoly:
    """Immutable sparse Laurent polynomial; use ring factories to construct.

    terms never holds a zero coefficient: the ring factories and the
    arithmetic drop zeros themselves, so the constructor stores terms as
    given."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

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

