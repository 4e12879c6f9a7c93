"""Word helpers that only the tests use: reading a GnWord from its printed
form, free reduction of braid words, and cancellation of GnWords by the
first two defining relations."""

import re

from braidrep.braids import BraidWord
from braidrep.gn3 import GnWord

_LETTER = re.compile(r"a\((\d+),(\d+),(\d+)\)(\^-1)?")


def gn_word(text, n):
    """The GnWord printed as text: letters "a(i,j,k)" or "a(i,j,k)^-1"."""
    letters = []
    for item in text.split():
        m = _LETTER.fullmatch(item)
        if not m:
            raise ValueError(f"cannot parse letter {item!r}")
        letters.append((tuple(int(v) for v in m.group(1, 2, 3)), -1 if m[4] else 1))
    return GnWord(n, letters)


def free_reduce(braid):
    """Cancel adjacent letters s_i s_i^-1 and s_i^-1 s_i."""
    stack = []
    for letter in braid.letters:
        if stack and stack[-1] == (letter[0], -letter[1]):
            stack.pop()
        else:
            stack.append(letter)
    return BraidWord(braid.n, stack)


def cancel_relations_1_2(word):
    """The GnWord left when letters cancel by the first two defining
    relations alone, until no pair cancels.  Relation 1 makes a(k,j,i) the
    inverse of a(i,j,k), so each letter is written with i < k; relation 2
    makes letters on at least five distinct indices commute.  Each pass adds
    the letters one at a time, and a letter cancels the last kept letter it
    meets that is its inverse, scanning back past letters it commutes with."""
    letters = [(t, e) if t[0] < t[2] else (t[::-1], -e) for t, e in word.letters]
    while True:
        kept = []
        for triple, e in letters:
            for pos in range(len(kept) - 1, -1, -1):
                other, f = kept[pos]
                if (other, f) == (triple, -e):
                    del kept[pos]
                    break
                if len(set(other) | set(triple)) < 5:
                    kept.append((triple, e))
                    break
            else:
                kept.append((triple, e))
        if len(kept) == len(letters):
            return GnWord(word.n, kept)
        letters = kept
