"""Permutations of {1,..,n} with left-to-right composition.

The product a*b applies a first: (a*b)(i) = b(a(i)).  This is the
convention under which relabelling words of triple-indexed generators is
compatible with taking products, which in turn makes the semidirect
multiplication in gn3.py associative; see the property tests.
"""

from __future__ import annotations

from operator import index


class Permutation:
    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(map(index, images))
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(images)}: {images}")
        self.images = images

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n, i):
        """The adjacent swap (i i+1) in the symmetric group on n symbols."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"transposition index {i} out of range 1..{n - 1}")
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return cls(images)

    @property
    def n(self):
        return len(self.images)

    def apply(self, i):
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range 1..{self.n}")
        return self.images[i - 1]

    __call__ = apply

    def __mul__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("permutations act on different sets")
        return Permutation(other.images[v - 1] for v in self.images)

    def inverse(self):
        images = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            images[v - 1] = i
        return Permutation(images)

    def is_identity(self):
        return all(v == i for i, v in enumerate(self.images, start=1))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its minimum."""
        seen = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            v = self.apply(start)
            while v != start:
                cyc.append(v)
                seen.add(v)
                v = self.apply(v)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __str__(self):
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def __repr__(self):
        return f"Permutation({list(self.images)})"
