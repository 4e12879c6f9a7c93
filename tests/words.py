"""Word helpers that only the tests use: reading a GnWord from its printed
form, and free reduction of braid words."""

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
