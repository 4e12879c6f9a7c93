"""Byte-identity of the command line's stdout on a fixed set of calls.

The expected outputs in tests/data/cli_stdout.json were captured from the
dense-product implementation; any change to the matrix engine must print
exactly the same documents.  Regenerate (only on purpose) with
`PYTHONPATH=src python3 tests/test_cli_stdout.py`.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from braidrep.cli import main

DATA = Path(__file__).parent / "data" / "cli_stdout.json"

CASES = [
    ["rep", "--n", "5", "--bigelow", "--set", "t1=-1", "--set-rest", "1",
     "--entry", "x_1_2", "x_1_2"],
    ["rep", "--n", "5", "--bigelow", "--set", "t1=-1", "--set", "s3=-1",
     "--set-rest", "1"],
    ["rep", "--n", "5", "--bigelow", "--set", "t1=2/3", "--set", "s2=-3/2",
     "--set-rest", "1"],
    ["rep", "--n", "6", "--bigelow", "--set", "t1=-1", "--set", "s1=-1",
     "--set-rest", "1"],
    ["rep", "--n", "6", "--bigelow", "--set", "t1=-3/2", "--set", "s1=-1",
     "--set-rest", "1", "--entry", "x_1_2", "x_1_3"],
    ["rep", "--n", "4", "s1^2 s2 s1^2 s2^-1 s3^-2"],
    ["rep", "--n", "4", "s1^2 s2 s1^2 s2^-1 s3^-2", "--entry", "x_4_2", "x_4_3"],
    ["burau", "--n", "5", "--bigelow", "--reduced"],
    ["burau", "--n", "5", "--bigelow"],
    ["burau", "--n", "4", "s1 s2^-1 s3 s1 s2^3", "--set-t", "2/3"],
    ["burau", "--n", "5", "s1 s2 s3^-1 s4 s2^-2", "--reduced", "--set-t=-3/2"],
    ["check", "--n", "4", "gn-relations"],
    ["check", "--n", "5", "gn-relations"],
    ["check", "--n", "4", "braid-relations"],
]


def capture(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def expected():
    with open(DATA) as fh:
        return {tuple(c["argv"]): c for c in json.load(fh)}


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv))
def test_stdout_is_byte_identical(argv):
    case = expected()[tuple(argv)]
    code, out = capture(argv)
    assert code == case["code"]
    assert out == case["stdout"]


if __name__ == "__main__":
    docs = []
    for argv in CASES:
        code, out = capture(argv)
        docs.append({"argv": argv, "code": code, "stdout": out})
    with open(DATA, "w") as fh:
        json.dump(docs, fh, indent=1)
        fh.write("\n")
