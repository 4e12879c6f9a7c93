"""Words of triple-indexed generators a(i,j,k), the renumbering action of
the symmetric group, the semidirect product it defines, and the braid
homomorphism phi into that product.

The group carries three defining relations: a(k,j,i) is the inverse of
a(i,j,k); generators sharing at most one index commute; and a tetrahedron
relation on each four-element index set.  No word problem is solved here:
words are kept free modulo the inverse relation only, and equality
questions are delegated to the matrix representation (matrixrep.py).
"""

from __future__ import annotations

from .braids import Word
from .permutations import Permutation


class NotPureError(ValueError):
    """The braid has a nontrivial strand permutation."""


class GnWord(Word):
    """A word in the generators a(i,j,k); letters are ((i,j,k), +-1)."""

    __slots__ = ()

    @staticmethod
    def _generator(n, triple):
        i, j, k = triple = tuple(int(v) for v in triple)
        if len({i, j, k}) != 3:
            raise ValueError(f"indices of a generator must be pairwise distinct: {triple}")
        for v in triple:
            if not 1 <= v <= n:
                raise ValueError(f"generator index {v} out of range 1..{n}")
        return triple

    @staticmethod
    def _text(triple):
        return "a({},{},{})".format(*triple)

    def to_json(self):
        return [[i, j, k, e] for (i, j, k), e in self.letters]

    def free_reduce(self):
        """Cancel x x^-1 where the inverse is either the explicit inverse
        letter or the reversed-triple letter a(k,j,i)."""
        stack = []
        for triple, e in self.letters:
            if stack:
                prev_t, prev_e = stack[-1]
                if (prev_t == triple and prev_e == -e) or (
                    prev_t == triple[::-1] and prev_e == e
                ):
                    stack.pop()
                    continue
            stack.append((triple, e))
        return GnWord(self.n, stack)

    def permuted(self, tau):
        """Renumber every index through tau, preserving letter order."""
        if tau.n != self.n:
            raise ValueError("permutation size does not match word")
        return GnWord(self.n, [((tau(i), tau(j), tau(k)), e) for (i, j, k), e in self.letters])


class SemidirectElement:
    """A pair (permutation, word) with the twisted product
    (p1, w1)(p2, w2) = (p1 p2, p2(w1) w2); words are kept freely reduced."""

    __slots__ = ("perm", "word")

    def __init__(self, perm, word):
        if perm.n != word.n:
            raise ValueError("permutation and word sizes differ")
        self.perm = perm
        self.word = word

    @classmethod
    def identity(cls, n):
        return cls(Permutation.identity(n), GnWord(n))

    def __mul__(self, other):
        if not isinstance(other, SemidirectElement):
            return NotImplemented
        if other.word.n != self.word.n:
            raise ValueError("elements on different index ranges")
        word = self.word.permuted(other.perm) * other.word
        return SemidirectElement(self.perm * other.perm, word.free_reduce())

    def inverse(self):
        inv = self.perm.inverse()
        return SemidirectElement(inv, self.word.inverse().permuted(inv))

    def __eq__(self, other):
        return (
            isinstance(other, SemidirectElement)
            and self.perm == other.perm
            and self.word == other.word
        )

    def __hash__(self):
        return hash((self.perm, self.word))

    def __repr__(self):
        return f"<SemidirectElement {self.perm!r}, {self.word}>"


def phi_generator(n, i, exponent=1):
    """Image of the i-th Artin generator: the swap (i i+1) paired with the
    word a(i-1,i+1,i)..a(1,i+1,i) a(n,i+1,i)..a(i+2,i+1,i); one letter per
    other strand, recording the collinearity events of the swap motion."""
    if n < 2:
        raise ValueError("need at least 2 strands")
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range 1..{n - 1}")
    if exponent not in (1, -1):
        raise ValueError(f"exponent must be +-1, got {exponent}")
    letters = [((p, i + 1, i), 1) for p in range(i - 1, 0, -1)]
    letters += [((p, i + 1, i), 1) for p in range(n, i + 1, -1)]
    element = SemidirectElement(
        Permutation.transposition(n, i), GnWord(n, letters)
    )
    if exponent == -1:
        return element.inverse()
    return element


def phi_word(w):
    """Fold phi over a braid word, left to right."""
    result = SemidirectElement.identity(w.n)
    for i, e in w.letters:
        result = result * phi_generator(w.n, i, e)
    return result


def phi_pure(w):
    """The word component of phi for a pure braid."""
    element = phi_word(w)
    if not element.perm.is_identity():
        raise NotPureError(
            f"braid induces the nontrivial permutation {element.perm}"
        )
    return element.word
