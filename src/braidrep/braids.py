"""Words of +-1 letters, braid words in the Artin generators among them,
and Bigelow's Burau-kernel braid.

Words are plain letter sequences; no normal form, not even free reduction,
is computed here.  Everything downstream evaluates words through
representations, so word-problem machinery is deliberately absent.
"""

from __future__ import annotations

import operator
import re

from .permutations import Permutation


class BraidParseError(ValueError):
    pass


# Commutator conventions.  The braid literature uses both; which one a
# given source means is only decidable from its numerical output, so both
# are provided and the calibrated default is recorded here.
COMMUTATOR_ABA_B = "aba-b-"   # [a, b] = a b a^-1 b^-1
COMMUTATOR_A_B_AB = "a-b-ab"  # [a, b] = a^-1 b^-1 a b
DEFAULT_COMMUTATOR_CONVENTION = COMMUTATOR_ABA_B

# Most letters BraidWord.parse accepts, counted after power expansion and
# checked before any power is expanded.
MAX_LETTERS = 4096


class Word:
    """A word of letters (generator, +-1) over n strands or indices.  A
    subclass gives _generator(n, g), which checks a generator and returns
    it normalised, and _text(g), its printed form; equality and products
    stay within one subclass."""

    __slots__ = ("n", "letters")

    def __init__(self, n, letters=()):
        if n < 2:
            raise ValueError("strand count must be at least 2")
        generator = self._generator
        clean = []
        for g, e in letters:
            g, e = generator(n, g), operator.index(e)
            if e not in (1, -1):
                raise ValueError(f"letter exponent must be +-1, got {e}")
            clean.append((g, e))
        self.n = n
        self.letters = tuple(clean)

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("words on different strand counts")
        return type(self)(self.n, self.letters + other.letters)

    def inverse(self):
        return type(self)(self.n, [(g, -e) for g, e in reversed(self.letters)])

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return type(other) is type(self) and (self.n, self.letters) == (other.n, other.letters)

    def __hash__(self):
        return hash((self.n, self.letters))

    def __str__(self):
        if not self.letters:
            return "<empty>"
        return " ".join(
            self._text(g) + ("" if e == 1 else "^-1") for g, e in self.letters
        )

    def __repr__(self):
        return f"<{type(self).__name__} n={self.n} {self}>"


class BraidWord(Word):
    """A word in the Artin generators; letters are (i, +-1) for s_i."""

    __slots__ = ()

    @staticmethod
    def _generator(n, i):
        i = operator.index(i)
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} out of range 1..{n - 1}")
        return i

    @staticmethod
    def _text(i):
        return f"s{i}"

    @classmethod
    def parse(cls, text, n):
        """Parse "s1 s2^-1" or the signed-integer form "1 -2"; powers expand,
        up to MAX_LETTERS letters in all."""
        items = text.split()
        letters = []
        for item in items:
            m = re.fullmatch(r"s(\d+)(?:\^(-?\d+))?", item)
            if m:
                index = int(m.group(1))
                power = int(m.group(2)) if m.group(2) is not None else 1
            elif re.fullmatch(r"-?\d+", item):
                value = int(item)
                if value == 0:
                    raise BraidParseError("generator index 0 is not allowed")
                index = abs(value)
                power = 1 if value > 0 else -1
            else:
                raise BraidParseError(f"cannot parse braid letter {item!r}")
            if not 1 <= index <= n - 1:
                raise BraidParseError(
                    f"generator index {index} out of range 1..{n - 1}"
                )
            if len(letters) + abs(power) > MAX_LETTERS:
                raise BraidParseError(f"braid longer than {MAX_LETTERS} letters")
            sign = 1 if power > 0 else -1
            letters.extend([(index, sign)] * abs(power))
        return cls(n, letters)

    def permutation(self):
        """Image under the strand permutation map sigma_i -> (i i+1)."""
        perm = Permutation.identity(self.n)
        for i, _e in self.letters:
            perm = perm * Permutation.transposition(self.n, i)
        return perm


def commutator(a, b, convention=DEFAULT_COMMUTATOR_CONVENTION):
    """[a, b] under the chosen convention, as a raw (unreduced) word."""
    if convention == COMMUTATOR_ABA_B:
        return a * b * a.inverse() * b.inverse()
    if convention == COMMUTATOR_A_B_AB:
        return a.inverse() * b.inverse() * a * b
    raise ValueError(f"unknown commutator convention {convention!r}")


def bigelow_beta(n, convention=DEFAULT_COMMUTATOR_CONVENTION):
    """Bigelow's pure 5-strand braid in the kernel of the reduced Burau
    representation, as a commutator of two conjugates; for n > 5 the same
    letters are placed on n strands."""
    if n < 5:
        raise ValueError("the built-in kernel braid needs n >= 5")
    psi1 = BraidWord.parse("s3^-1 s2 s1^2 s2 s4^3 s3 s2", 5)
    psi2 = BraidWord.parse("s4^-1 s3 s2 s1^-2 s2 s1^2 s2^2 s1 s4^5", 5)
    x = psi1.inverse() * BraidWord.parse("s4", 5) * psi1
    y = psi2.inverse() * BraidWord.parse("s4 s3 s2 s1^2 s2 s3 s4", 5) * psi2
    beta = commutator(x, y, convention)
    return BraidWord(n, beta.letters)
