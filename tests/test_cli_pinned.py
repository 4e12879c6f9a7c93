"""Pinned outputs of `phi`, `check oracle` and `simulate --sigma`.

tests/data/cli_pinned.json holds the full stdout of the phi and oracle
calls and the `word` field of the simulate call.  The event times of
`simulate` come from libm cos/sin and are not pinned.  Regenerate (only on
purpose) with `PYTHONPATH=src python3 tests/test_cli_pinned.py`.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from braidrep.cli import main

DATA = Path(__file__).parent / "data" / "cli_pinned.json"

STDOUT_CASES = [
    ["phi", "--n", "5", "s1 s2^-1 s3 s4"],
    ["check", "--n", "5", "oracle"],
    ["check", "--n", "8", "oracle"],
]
WORD_CASES = [
    ["simulate", "--sigma", "5", "2"],
]


def capture(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def pinned(argv, code, out):
    if argv in WORD_CASES:
        return {"argv": argv, "code": code, "word": json.loads(out)["word"]}
    return {"argv": argv, "code": code, "stdout": out}


def expected():
    with open(DATA) as fh:
        return {tuple(c["argv"]): c for c in json.load(fh)}


@pytest.mark.parametrize("argv", STDOUT_CASES + WORD_CASES,
                         ids=lambda argv: " ".join(argv))
def test_output_is_pinned(argv):
    assert pinned(argv, *capture(argv)) == expected()[tuple(argv)]


if __name__ == "__main__":
    docs = [pinned(argv, *capture(argv)) for argv in STDOUT_CASES + WORD_CASES]
    with open(DATA, "w") as fh:
        json.dump(docs, fh, indent=1)
        fh.write("\n")
