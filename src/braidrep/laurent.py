"""Exact sparse multivariate Laurent polynomials over the integers.

A ring is a fixed tuple of variable names.  For a braid computation on n
strands the ring has 2n variables t1..tn, s1..sn; the classical Burau
representation reuses the same engine with the single variable t.

A polynomial maps packed exponent keys to nonzero int coefficients.  Each
exponent takes a signed slot of SLOT_BITS bits, the first variable the most
significant (Kronecker substitution): the key of v1^a1 ... vk^ak is the sum
of a_i << SLOT_BITS * (k - i), so the constant monomial is 0, a Burau key
is its exponent, and a monomial product is one int addition.  While every
|exponent| is below EXPONENT_LIMIT, half a slot, keys are unique and sort
like exponent vectors; only printing and evaluation unpack them.  Each
polynomial carries an upper bound on its largest |exponent| (the larger
under + and -, the sum under *), and an operation whose bound would reach
EXPONENT_LIMIT raises OverflowError instead of carrying into the next slot.

Coefficients are Python ints, so they never overflow; specialisation maps
into fractions.Fraction so that negative exponents are always evaluable.
Values are immutable after construction and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

SLOT_BITS = 16
EXPONENT_LIMIT = 1 << (SLOT_BITS - 1)
_SLOT_MASK = (1 << SLOT_BITS) - 1


class LaurentRing:
    """An integer Laurent-polynomial ring with a fixed ordered variable set."""

    __slots__ = ("names", "index", "_shifts", "_bias")

    def __init__(self, names):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self.index = {name: i for i, name in enumerate(self.names)}
        # slot offsets, first variable highest; key + _bias has no negative
        # slot, so ((key + _bias) >> shift) & _SLOT_MASK is exponent + EXPONENT_LIMIT
        self._shifts = tuple(SLOT_BITS * i for i in reversed(range(len(self.names))))
        self._bias = sum(EXPONENT_LIMIT << shift for shift in self._shifts)

    @classmethod
    @cache
    def for_strands(cls, n):
        """The ring in variables t1..tn, s1..sn used by the n-strand
        representation; one object per n, so rings compare by identity."""
        if n < 1:
            raise ValueError("strand count must be positive")
        return cls([f"t{i}" for i in range(1, n + 1)] + [f"s{i}" for i in range(1, n + 1)])

    @classmethod
    @cache
    def burau(cls):
        """The one-variable ring Z[t, t^-1]."""
        return cls(("t",))

    def __repr__(self):
        return f"LaurentRing({', '.join(self.names)})"

    def zero(self):
        return LaurentPoly(self, {}, 0)

    def one(self):
        return self.constant(1)

    def constant(self, c):
        if c == 0:
            return self.zero()
        return LaurentPoly(self, {0: int(c)}, 0)

    def monomial(self, coeff, exponents):
        """coeff * prod(name ** e for name, e in exponents.items())."""
        key = bound = 0
        for name, e in exponents.items():
            if name not in self.index:
                raise ValueError(f"unknown variable {name!r}")
            e = int(e)
            if abs(e) >= EXPONENT_LIMIT:
                raise OverflowError(f"exponent {e} of {name!r} needs |e| < {EXPONENT_LIMIT}")
            key += e << self._shifts[self.index[name]]
            bound = max(bound, abs(e))
        if coeff == 0:
            return self.zero()
        return LaurentPoly(self, {key: int(coeff)}, bound)

    def var(self, name, power=1):
        return self.monomial(1, {name: power})

    def exponent_sums(self, keys):
        """For each variable in ring order, its |exponent| summed over the keys."""
        keys = [key + self._bias for key in keys]
        return [sum(abs(((key >> shift) & _SLOT_MASK) - EXPONENT_LIMIT) for key in keys)
                for shift in self._shifts]


class LaurentPoly:
    """Immutable sparse Laurent polynomial; use ring factories to construct.

    terms maps packed keys to coefficients and never holds a zero: the ring
    factories and the arithmetic drop zeros themselves, so the constructor
    stores terms as given.  bound is at least every term's |exponent|."""

    __slots__ = ("ring", "terms", "bound")

    def __init__(self, ring, terms, bound):
        self.ring = ring
        self.terms = terms
        self.bound = bound

    def _check(self, other):
        if isinstance(other, LaurentPoly):
            if other.ring is self.ring:
                return other
            raise ValueError("polynomials belong to different rings")
        if isinstance(other, int):
            return self.ring.constant(other)
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        terms = dict(big)
        for e, c in small.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                del terms[e]
        return LaurentPoly(self.ring, terms, max(self.bound, other.bound))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.ring, {e: -c for e, c in self.terms.items()}, self.bound)

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
        bound = self.bound + other.bound
        if bound >= EXPONENT_LIMIT:
            raise OverflowError(f"product exponents may reach {bound} >= {EXPONENT_LIMIT}")
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        if not small:
            return LaurentPoly(self.ring, {}, bound)
        # one term of the smaller factor shifts every key of the larger: the
        # shifted keys are distinct, so only the later terms can collide
        (k, a), *rest = small.items()
        terms = {e + k: a * c for e, c in big.items()}
        for k, a in rest:
            for e, c in big.items():
                e += k
                s = terms.get(e, 0) + a * c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return LaurentPoly(self.ring, terms, bound)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

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
        for key, coeff in self.terms.items():
            key += self.ring._bias
            term = Fraction(coeff)
            for v, shift in zip(values, self.ring._shifts):
                e = ((key >> shift) & _SLOT_MASK) - EXPONENT_LIMIT
                if e:
                    term *= v ** e
            total += term
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        slots = tuple(zip(self.ring.names, self.ring._shifts))
        for key in sorted(self.terms, reverse=True):
            coeff = self.terms[key]
            key += self.ring._bias
            factors = []
            for name, shift in slots:
                e = ((key >> shift) & _SLOT_MASK) - EXPONENT_LIMIT
                if e:
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
