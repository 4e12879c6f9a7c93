"""Command-line interface.

Subcommands: phi, rep, burau, check, simulate.  Results are printed as a
single compact JSON document on stdout; diagnostics go to stderr.  Exit
codes: 0 success, 1 computation-level failure (failing check, non-pure
braid, degenerate motion), 2 usage or parse error.  Options must be
spelled in full; argparse's abbreviations are turned off.

The command line uses the library's calibrated conventions only (the
commutator and product order in braids and matrixrep), and simulate uses
the detector's fixed time resolution and swap-motion segment count
(collinearity.TOLERANCE and collinearity.SEGMENTS).  simulate --sigma N I
accepts 3 <= N <= 11 (collinearity.MAX_SIGMA_POINTS): beyond that the swap
motion's event word is not the generator image.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .braids import BraidParseError, BraidWord, bigelow_beta
from .collinearity import (
    DegenerateEventError,
    TrajectoryError,
    calibrate_against_phi,
    detect_events,
    events_to_word,
    load_trajectories,
    sigma_motion,
)
from .gn3 import NotPureError, phi_pure, phi_word
from .matrixrep import (
    burau_reduced,
    burau_unreduced,
    basis_pairs,
    check_braid_relations,
    check_relations,
    numeric_rep_of_word,
    rep_of_word,
    report_passed,
    strand_assignment,
)

USAGE_ERROR = 2
FAILURE = 1

# Input bounds, checked before anything is allocated: the strand count of
# phi, rep and burau (rep matrices are n(n-1) square; simulate --sigma
# takes at most collinearity.MAX_SIGMA_POINTS),
# the phi letters of an unspecialised rep and the text of a rational value
# (Fraction builds 10**E for a decimal exponent E).
MAX_STRANDS = 32
MAX_SYMBOLIC_LETTERS = 60
MAX_RATIONAL_TEXT = 1000
MAX_DECIMAL_EXPONENT = 10000


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="braidrep",
        description="Exact braid representations from collinearity events",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phi", help="image of a braid in the semidirect product",
                       allow_abbrev=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("braid", help='braid word, e.g. "s1 s2^-1" or "1 -2"')

    p = sub.add_parser("rep", allow_abbrev=False, help="matrix of a pure braid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("braid", nargs="?", default=None)
    p.add_argument("--bigelow", action="store_true",
                   help="use the built-in Burau-kernel braid (n = 5 or 6)")
    p.add_argument("--set", action="append", default=[], metavar="VAR=VALUE",
                   help="specialise a variable to an exact rational")
    p.add_argument("--set-rest", default=None, metavar="VALUE",
                   help="value for every variable not set explicitly")
    p.add_argument("--entry", nargs=2, default=None, metavar=("ROW", "COL"),
                   help="print a single entry, e.g. --entry x_1_2 x_1_2")

    p = sub.add_parser("burau", allow_abbrev=False, help="Burau matrix of a braid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("braid", nargs="?", default=None)
    p.add_argument("--bigelow", action="store_true")
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--set-t", default=None, metavar="VALUE",
                   help="specialise t to an exact rational")

    p = sub.add_parser("check", allow_abbrev=False, help="run a verification suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("which", choices=("gn-relations", "braid-relations", "oracle"))

    p = sub.add_parser("simulate", help="collinearity events of a motion",
                       allow_abbrev=False)
    p.add_argument("file", nargs="?", default=None, help="trajectory JSON file")
    p.add_argument("--sigma", nargs=2, type=int, default=None, metavar=("N", "I"),
                   help="use the built-in swap motion of generator I on N points")

    return parser


def _parse_braid(args):
    if getattr(args, "bigelow", False):
        if args.braid is not None:
            raise CliError("give either a braid word or --bigelow, not both",
                           USAGE_ERROR)
        try:
            return bigelow_beta(args.n)
        except ValueError as exc:
            raise CliError(str(exc), USAGE_ERROR)
    if args.braid is None:
        raise CliError("missing braid word (or --bigelow)", USAGE_ERROR)
    try:
        return BraidWord.parse(args.braid, args.n)
    except (BraidParseError, ValueError) as exc:
        raise CliError(str(exc), USAGE_ERROR)


def _parse_rational(text):
    if len(text) > MAX_RATIONAL_TEXT:
        raise CliError(f"a rational value has at most {MAX_RATIONAL_TEXT} characters",
                       USAGE_ERROR)
    try:
        exponent = abs(int(text.lower().partition("e")[2]))
    except ValueError:
        exponent = 0    # no integer exponent: Fraction reads or rejects the text
    if exponent > MAX_DECIMAL_EXPONENT:
        raise CliError(f"decimal exponent of {text!r} is above {MAX_DECIMAL_EXPONENT} "
                       "in absolute value", USAGE_ERROR)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"not a rational number: {text!r}", USAGE_ERROR) from exc


def _assignment(args, n):
    explicit = {}
    for item in args.set:
        if "=" not in item:
            raise CliError(f"--set expects VAR=VALUE, got {item!r}", USAGE_ERROR)
        name, _, value = item.partition("=")
        explicit[name.strip()] = _parse_rational(value.strip())
    if not explicit and args.set_rest is None:
        return None
    rest = _parse_rational(args.set_rest) if args.set_rest is not None else None
    try:
        return strand_assignment(n, explicit, rest)
    except ValueError as exc:
        # the library names the missing variables; --set-rest assigns them
        message = str(exc).replace("unassigned:", "unassigned (add --set-rest):")
        raise CliError(message, USAGE_ERROR)


def _printable(render, *args):
    """render(*args), the one step that turns result values into text."""
    try:
        return render(*args)
    except ValueError as exc:     # an int longer than the interpreter prints
        raise CliError(
            "result too large to print: an integer in it has more than "
            f"{sys.get_int_max_str_digits()} digits", FAILURE) from exc


def _check_strands(n, least):
    if not least <= n <= MAX_STRANDS:
        raise CliError(f"strand count must be between {least} and {MAX_STRANDS}",
                       USAGE_ERROR)


def cmd_phi(args):
    _check_strands(args.n, 2)
    word = _parse_braid(args)
    element = phi_word(word)
    return {
        "n": args.n,
        "permutation": list(element.perm.images),
        "word": element.word.to_json(),
    }


def cmd_rep(args):
    _check_strands(args.n, 3)
    braid = _parse_braid(args)
    assignment = _assignment(args, args.n)
    try:
        word = phi_pure(braid)
    except NotPureError as exc:
        raise CliError(str(exc), FAILURE)
    if assignment is not None:
        matrix = numeric_rep_of_word(word, assignment)
    elif len(word) > MAX_SYMBOLIC_LETTERS:
        raise CliError(f"symbolic product over {MAX_SYMBOLIC_LETTERS} phi letters; "
                       "specialise with --set/--set-rest", USAGE_ERROR)
    else:
        matrix = rep_of_word(word)
    basis = [f"x_{p}_{q}" for p, q in basis_pairs(args.n)]
    if args.entry:
        for name in args.entry:
            if name not in basis:
                raise CliError(f"not a basis pair for n={args.n}: {name!r}",
                               USAGE_ERROR)
        row, col = map(basis.index, args.entry)
        return _printable(str, matrix.entry(row, col))
    return _printable(matrix.to_json, basis, args.n)


def cmd_burau(args):
    _check_strands(args.n, 2)
    braid = _parse_braid(args)
    if args.reduced:
        matrix = burau_reduced(braid)
        basis = [f"v_{i}" for i in range(1, args.n)]
    else:
        matrix = burau_unreduced(braid)
        basis = [f"e_{i}" for i in range(1, args.n + 1)]
    if args.set_t is not None:
        value = _parse_rational(args.set_t)
        if value == 0:
            raise CliError("t is a unit; zero is not allowed", USAGE_ERROR)
        matrix = matrix.specialize({"t": value})
    return _printable(matrix.to_json, basis, args.n)


def cmd_check(args):
    lo, hi, suite = {
        "gn-relations": (4, 8, check_relations),
        "braid-relations": (3, 8, check_braid_relations),
        "oracle": (3, 8, calibrate_against_phi),
    }[args.which]
    if not lo <= args.n <= hi:
        raise CliError(
            f"check {args.which} supports {lo} <= n <= {hi}", USAGE_ERROR
        )
    report = suite(args.n)
    passed = report_passed(report)
    doc = {
        "check": args.which,
        "n": args.n,
        "passed": passed,
        "instances": report,
    }
    if not passed:
        doc["failures"] = [e["instance"] for e in report if not e["ok"]]
    return doc, 0 if passed else FAILURE


def cmd_simulate(args):
    if (args.file is None) == (args.sigma is None):
        raise CliError("give a trajectory file or --sigma N I", USAGE_ERROR)
    if args.sigma is not None:
        n, i = args.sigma
        try:
            ts = sigma_motion(n, i)
        except ValueError as exc:
            raise CliError(str(exc), USAGE_ERROR)
    else:
        try:
            ts = load_trajectories(args.file)
        except FileNotFoundError as exc:
            raise CliError(str(exc), USAGE_ERROR)
        except TrajectoryError as exc:
            raise CliError(f"malformed trajectory file: {exc}", USAGE_ERROR)
    try:
        events = detect_events(ts)
    except DegenerateEventError as exc:
        raise CliError(str(exc), FAILURE)
    word = events_to_word(events, ts.n)
    return {
        "n": ts.n,
        "events": [
            {"time": e.time, "triple": list(e.triple)} for e in events
        ],
        "word": word.to_json(),
    }


def _attach_values(argv):
    """Write "--set-rest VALUE" and "--set-t VALUE" as "--set-rest=VALUE":
    argparse reads only -N and -N.N as negative numbers, so a separate word
    such as -2/3 or -1e3 would be taken for an option, not for the value.
    The parsers accept no abbreviation, so the full names are the only
    spellings of these options."""
    out = []
    words = iter(argv)
    for word in words:
        value = next(words, None) if word in ("--set-rest", "--set-t") else None
        if value is None:
            out.append(word)
        elif value.startswith("--"):
            out += [word, value]
        else:
            out.append(f"{word}={value}")
    return out


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    handlers = {
        "phi": cmd_phi,
        "rep": cmd_rep,
        "burau": cmd_burau,
        "check": cmd_check,
        "simulate": cmd_simulate,
    }
    try:
        result = handlers[args.command](args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    code = 0
    if isinstance(result, tuple):
        result, code = result
    print(json.dumps(result))
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
