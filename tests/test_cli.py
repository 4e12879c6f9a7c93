import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from braidrep import cli, collinearity, matrixrep
from braidrep.braids import MAX_LETTERS, BraidWord, bigelow_beta
from braidrep.cli import (
    MAX_DECIMAL_EXPONENT,
    MAX_RATIONAL_TEXT,
    MAX_STRANDS,
    main,
)
from braidrep.gn3 import GnWord, phi_pure
from braidrep.laurent import LaurentPoly
from braidrep.matrixrep import (
    METER_INTERVAL,
    basis_index,
    burau_reduced,
    burau_unreduced,
    numeric_rep_of_word,
    rep_of_word,
    strand_assignment,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_phi_of_first_generator(capsys):
    code, out, _ = run(capsys, "phi", "--n", "5", "s1")
    assert code == 0
    doc = json.loads(out)
    assert doc["permutation"] == [2, 1, 3, 4, 5]
    assert doc["word"] == [[5, 2, 1, 1], [4, 2, 1, 1], [3, 2, 1, 1]]


def test_phi_of_empty_word(capsys):
    code, out, _ = run(capsys, "phi", "--n", "3", "")
    assert code == 0
    doc = json.loads(out)
    assert doc["permutation"] == [1, 2, 3]
    assert doc["word"] == []


def test_phi_rejects_bad_generator(capsys):
    code, _, err = run(capsys, "phi", "--n", "5", "s9")
    assert code == 2
    assert "out of range" in err


def test_rep_reproduces_the_corner_entry(capsys):
    code, out, _ = run(
        capsys, "rep", "--n", "5", "--bigelow",
        "--set", "t1=-1", "--set-rest", "1",
        "--entry", "x_1_2", "x_1_2",
    )
    assert code == 0
    assert json.loads(out) == "-399"


def test_rep_reproduces_the_corner_entry_on_six_strands(capsys):
    code, out, _ = run(
        capsys, "rep", "--n", "6", "--bigelow",
        "--set", "t1=-1", "--set", "s1=-1", "--set-rest", "1",
        "--entry", "x_1_2", "x_1_2",
    )
    assert code == 0
    assert json.loads(out) == "-399"


def test_rep_of_empty_braid_is_identity(capsys):
    code, out, _ = run(capsys, "rep", "--n", "3", "")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3 and doc["dim"] == 6
    assert doc["basis"][0] == "x_1_2"
    assert all(e["row"] == e["col"] and e["value"] == "1" for e in doc["entries"])
    assert len(doc["entries"]) == 6


def test_rep_rejects_non_pure_braids(capsys):
    code, _, err = run(capsys, "rep", "--n", "3", "s1")
    assert code == 1
    assert "permutation" in err


def test_rep_rejects_zero_assignment(capsys):
    code, _, err = run(
        capsys, "rep", "--n", "3", "s1^2", "--set", "t1=0", "--set-rest", "1"
    )
    assert code == 2


# Reference for the fold's work meter.  A line's size is its Laurent terms,
# or for numbers its entries plus the sum of b*b >> 17 over entries of b bits.
# After every METER_INTERVAL letters that write lines, each line written since
# the last charge is charged its size times the number of its writes.
# a(i,j,k) writes x_ij unless t_i = 1, x_kj unless t_k = 1, and x_jk and x_ji
# unless s_j = 1; symbolically it writes all four.

def terms_size(values):
    return sum(len(v.terms) for v in values)


def number_size(values):
    values = [Fraction(v) for v in values]
    return len(values) + (sum((v.numerator.bit_length() + v.denominator.bit_length()) ** 2
                              for v in values) >> 17)


def written_by(letter, assignment):
    (i, j, k), e = letter
    if e == -1:
        i, k = k, i
    rewrites = [((i, j), f"t{i}"), ((k, j), f"t{k}"), ((j, k), f"s{j}"), ((j, i), f"s{j}")]
    return [pair for pair, name in rewrites if assignment is None or assignment[name] != 1]


def first_charge(word, assignment=None):
    """The work of the meter's first charge on the fold of a phi word."""
    writers = [m for m in range(1, len(word) + 1) if written_by(word.letters[m - 1], assignment)]
    prefix = GnWord(word.n, word.letters[:writers[METER_INTERVAL - 1]])
    with pytest.MonkeyPatch.context() as unmetered:
        unmetered.setattr(matrixrep, "WORK_BUDGET", math.inf)
        if assignment is None:
            matrix, size = rep_of_word(prefix), terms_size
        else:
            matrix, size = numeric_rep_of_word(prefix, assignment), number_size
    index = basis_index(word.n)
    writes = Counter(pair for letter in prefix.letters for pair in written_by(letter, assignment))
    return sum(count * size([row[index[pair]] for row in matrix.rows.values()
                             if index[pair] in row])
               for pair, count in writes.items())


def test_rep_symbolic_guard_for_long_braids(capsys, monkeypatch):
    # no option lifts the budget; the way out is a shorter braid or values
    braid = f"s1^{METER_INTERVAL}"
    work = first_charge(phi_pure(BraidWord.parse(braid, 3)))
    monkeypatch.setattr(matrixrep, "WORK_BUDGET", work)
    code, out, err = run(capsys, "rep", "--n", "3", braid)
    assert code == 0 and json.loads(out)["dim"] == 6 and err == ""
    monkeypatch.setattr(matrixrep, "WORK_BUDGET", work - 1)
    code, out, err = run(capsys, "rep", "--n", "3", braid)
    assert (code, out) == (2, "")
    assert err.startswith(f"the product of {METER_INTERVAL} non-identity letters passes")
    assert "matrixrep.WORK_BUDGET" in err and len(err.splitlines()) == 1


def fold_charge(monkeypatch, braid, n):
    """The meter's total charge on the Burau fold of the braid, unbounded."""
    charges = [0]
    monkeypatch.setattr(matrixrep, "_spend", lambda work, what: charges.append(work))
    burau_unreduced(BraidWord.parse(braid, n))
    return charges[-1]


def test_meter_charges_every_letter_that_writes(capsys, monkeypatch):
    # every 16th letter of (s1^15 s30)^k is the cheap s30; s30 commutes with
    # s1 and writes other lines, so the s1 lines grow as in s1^(15 k)
    lined_up = " ".join(["s1"] * 15 + ["s30"])
    with monkeypatch.context() as unbounded:
        charge = fold_charge(unbounded, " ".join([lined_up] * 64), 32)
        assert charge >= fold_charge(unbounded, "s1^960", 32)
    code, out, err = run(capsys, "burau", "--n", "32", " ".join([lined_up] * 256))
    assert (code, out) == (2, "")
    assert err.startswith("the product of") and len(err.splitlines()) == 1


def parse_laurent(text):
    """{exponents: coefficient} of a printed polynomial."""
    poly = {}
    for part in text.split(" + "):
        sign, part = (-1, part[1:]) if part.startswith("-") else (1, part)
        coeff, exponents = sign, {}
        for factor in part.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
            else:
                name, _, power = factor.partition("^")
                exponents[name] = int(power or 1)
        poly[tuple(sorted(exponents.items()))] = coeff
    return poly


@pytest.mark.parametrize("n, values", [(5, ["--set", "t1=-1"]),
                                       (6, ["--set", "t1=-1", "--set", "s1=-1"])],
                         ids=["n5", "n6"])
def test_symbolic_corner_of_the_kernel_braid(capsys, n, values):
    # the whole symbolic fold of Bigelow's braid is within the budget, and
    # its corner entry specialises to the numeric one
    code, out, err = run(capsys, "rep", "--n", str(n), "--bigelow", "--entry", "x_1_2", "x_1_2")
    assert code == 0 and err == ""
    corner = parse_laurent(json.loads(out))
    assert len(corner) == 572
    code, out, _ = run(capsys, "rep", "--n", str(n), "--bigelow", *values, "--set-rest", "1",
                       "--entry", "x_1_2", "x_1_2")
    assert code == 0 and json.loads(out) == "-399"
    minus = {value.partition("=")[0] for value in values[1::2]}
    assert sum(coeff * (-1) ** sum(e for name, e in exponents if name in minus)
               for exponents, coeff in corner.items()) == -399


def test_rep_symbolic_output_for_short_braids(capsys):
    # x_12 passes through the (k,j) case of a(3,2,1) and then the (j,k)
    # case of a(3,1,2), picking up t1^-1 and s1
    code, out, _ = run(capsys, "rep", "--n", "3", "s1^2")
    assert code == 0
    doc = json.loads(out)
    values = {(e["row"], e["col"]): e["value"] for e in doc["entries"]}
    assert values[(0, 0)] == "t1^-1*s1"


def test_burau_reduced_of_kernel_braid_is_identity(capsys):
    # the identity holds no power of t, so no value of t is too large for it
    for value in ([], ["--set-t", "1e10000"]):
        code, out, _ = run(capsys, "burau", "--n", "5", "--reduced", "--bigelow", *value)
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 4
        assert len(doc["entries"]) == 4
        assert all(e["row"] == e["col"] and e["value"] == "1" for e in doc["entries"])


def test_burau_of_empty_braid(capsys):
    code, out, _ = run(capsys, "burau", "--n", "3", "")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 3
    assert all(e["row"] == e["col"] and e["value"] == "1" for e in doc["entries"])


def test_burau_specialised_at_one_is_a_permutation_matrix(capsys):
    code, out, _ = run(capsys, "burau", "--n", "3", "s1", "--set-t", "1")
    assert code == 0
    doc = json.loads(out)
    entries = {(e["row"], e["col"]): e["value"] for e in doc["entries"]}
    assert entries == {(0, 1): "1", (1, 0): "1", (2, 2): "1"}


def test_check_gn_relations(capsys):
    code, out, _ = run(capsys, "check", "--n", "4", "gn-relations")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["check"] == "gn-relations"


def test_check_braid_relations(capsys):
    code, out, _ = run(capsys, "check", "--n", "5", "braid-relations")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_check_oracle(capsys):
    code, out, _ = run(capsys, "check", "--n", "5", "oracle")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(e["match"] == "exact" for e in doc["instances"])


def test_check_oracle_reports_a_mismatch(capsys, monkeypatch):
    # a wrong algebraic image for generator 2 must fail that instance only
    real = collinearity.phi_generator
    monkeypatch.setattr(collinearity, "phi_generator",
                        lambda n, i: real(n, 1 if i == 2 else i))
    code, out, _ = run(capsys, "check", "--n", "4", "oracle")
    doc = json.loads(out)
    assert code == 1 and doc["passed"] is False and doc["failures"] == ["i=2"]
    assert [(e["ok"], e["match"]) for e in doc["instances"]] == [
        (True, "exact"), (False, "mismatch"), (True, "exact")]


def test_check_bounds(capsys):
    code, _, err = run(capsys, "check", "--n", "3", "gn-relations")
    assert code == 2


@pytest.mark.parametrize("which", ["gn-relations", "braid-relations"])
def test_check_relations_refuses_nine_strands(capsys, which):
    code, out, err = run(capsys, "check", "--n", "9", which)
    assert code == 2 and out == ""
    assert "n <= 8" in err and len(err.splitlines()) == 1


def test_check_braid_relations_on_eight_strands(capsys):
    code, out, _ = run(capsys, "check", "--n", "8", "braid-relations")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["n"] == 8


def test_check_gn_relations_accepts_eight_strands(capsys):
    code, out, _ = run(capsys, "check", "--n", "8", "gn-relations")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["n"] == 8
    assert len(doc["instances"]) == 336 + 40320 + 1680


def test_simulate_sigma(capsys):
    code, out, _ = run(capsys, "simulate", "--sigma", "5", "1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["events"]) == 3
    assert doc["word"] == [[5, 2, 1, 1], [4, 2, 1, 1], [3, 2, 1, 1]]


def test_simulate_still_configuration(capsys, tmp_path):
    doc = {
        "n": 3,
        "paths": [
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            [[0.0, 1.0, 0.1], [1.0, 1.0, 0.1]],
            [[0.0, 0.2, 1.0], [1.0, 0.2, 1.0]],
        ],
    }
    path = tmp_path / "still.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "simulate", str(path))
    assert code == 0
    result = json.loads(out)
    assert result["events"] == [] and result["word"] == []


def test_simulate_rejects_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run(capsys, "simulate", str(path))
    assert code == 2
    assert "malformed" in err


def test_simulate_degenerate_motion_fails(capsys, tmp_path):
    doc = {
        "n": 3,
        "paths": [
            [[0.0, -2.0, 0.0], [1.0, -2.0, 0.0]],
            [[0.0, 2.0, 0.0], [1.0, 2.0, 0.0]],
            [[0.0, -1.0, 0.5], [0.5, 0.0, 0.0], [1.0, -1.0, 0.5]],
        ],
    }
    path = tmp_path / "tangent.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "simulate", str(path))
    assert code == 1


def test_outputs_are_deterministic(capsys):
    _, out1, _ = run(capsys, "check", "--n", "4", "oracle")
    _, out2, _ = run(capsys, "check", "--n", "4", "oracle")
    assert out1 == out2
    _, out3, _ = run(capsys, "phi", "--n", "4", "s1 s2 s3")
    _, out4, _ = run(capsys, "phi", "--n", "4", "s1 s2 s3")
    assert out3 == out4


def test_set_rest_does_not_override_explicit_set(capsys):
    # corner is t1^-1 * s1, so t1=3 (explicit) with s1=1 (rest) gives 1/3
    code, out, _ = run(
        capsys, "rep", "--n", "3", "s1^2",
        "--set", "t1=3", "--set-rest", "1",
        "--entry", "x_1_2", "x_1_2",
    )
    assert code == 0
    assert json.loads(out) == "1/3"


def test_fully_explicit_assignment_needs_no_rest(capsys):
    code, out, _ = run(
        capsys, "rep", "--n", "3", "s1^2",
        "--set", "t1=2", "--set", "t2=1", "--set", "t3=1",
        "--set", "s1=5", "--set", "s2=1", "--set", "s3=1",
        "--entry", "x_1_2", "x_1_2",
    )
    assert code == 0
    assert json.loads(out) == "5/2"


def test_partial_assignment_without_rest_is_rejected(capsys):
    code, _, err = run(capsys, "rep", "--n", "3", "s1^2", "--set", "t1=2")
    assert code == 2
    assert "--set-rest" in err


UNITS = "variables are units; zero assignments are not allowed\n"


@pytest.mark.parametrize(
    "assign, message",
    [(("--set", "t9=2", "--set-rest", "1"), "unknown variable 't9'\n"),
     (("--set", "t1=0", "--set-rest", "1"), UNITS),
     (("--set", "t1=2", "--set-rest", "0"), UNITS),
     (("--set", "t1=2"), "variables left unassigned (add --set-rest): "
                         "t2, t3, s1, s2, s3\n"),
     (("--set", "t1=-1", "--set", "t1=2", "--set-rest", "1", "--entry", "x_1_2", "x_1_2"),
      "--set gives 't1' more than once\n")],
    ids=["unknown", "zero", "zero-rest", "unset", "repeated"],
)
def test_assignment_error_texts(capsys, assign, message):
    assert run(capsys, "rep", "--n", "3", "s1^2", *assign) == (2, "", message)


def test_entry_names_are_the_printed_basis(capsys):
    code, out, _ = run(capsys, "rep", "--n", "4", "s1^2")
    doc = json.loads(out)
    values = {(e["row"], e["col"]): e["value"] for e in doc["entries"]}
    for r, row in enumerate(doc["basis"]):
        for c, col in enumerate(doc["basis"]):
            expected = json.dumps(values.get((r, c), "0")) + "\n"
            assert run(capsys, "rep", "--n", "4", "s1^2", "--entry", row, col) == (
                0, expected, "")


@pytest.mark.parametrize("name", ["x_01_2", "x_+1_2", "x_1_1", "x_1_5", "x_12", "y_1_2"])
def test_entry_refuses_names_outside_the_basis(capsys, name):
    code, out, err = run(capsys, "rep", "--n", "4", "s1^2", "--entry", "x_1_2", name)
    assert (code, out) == (2, "")
    assert err == f"not a basis pair for n=4: {name!r}\n"


@pytest.mark.parametrize(
    "argv",
    [("rep", "--n", "3", "s1^2", "--set-r", "-2/3"),
     ("rep", "--n", "3", "s1^2", "--set-r=-2/3"),
     ("burau", "--n", "3", "s1", "--set", "-2/3")],
    ids=["set-r", "set-r=", "burau-set"],
)
def test_abbreviated_option_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage:") and "unrecognized arguments" in err


def test_usage_error_exit_code(capsys):
    assert main(["rep", "--n", "5"]) == 2
    capsys.readouterr()
    assert main(["nonsense"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["phi", "rep", "burau"])
@pytest.mark.parametrize("n", [MAX_STRANDS + 1, 10 ** 12])
def test_strand_count_is_capped(capsys, command, n):
    code, out, err = run(capsys, command, "--n", str(n), "s1^2")
    assert code == 2 and out == ""
    assert str(MAX_STRANDS) in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "braid",
    [f"s1^{MAX_LETTERS + 1}", f"s1^-{10 ** 30}", "s1 " * (MAX_LETTERS + 1),
     "s1^2 " * (MAX_LETTERS // 2) + "s2"],
    ids=["power", "huge-power", "letters", "power-sum"],
)
@pytest.mark.parametrize("command", ["phi", "rep", "burau"])
def test_braid_length_is_capped(capsys, command, braid):
    code, out, err = run(capsys, command, "--n", "3", braid)
    assert code == 2 and out == ""
    assert f"longer than {MAX_LETTERS}" in err and len(err.splitlines()) == 1


def test_simulate_sigma_size_is_capped(capsys):
    # beyond 11 points the swap motion's word is not the generator image
    assert collinearity.MAX_SIGMA_POINTS == 11
    for n in (12, 13, MAX_STRANDS + 1):
        code, out, err = run(capsys, "simulate", "--sigma", str(n), "1")
        assert (code, out) == (2, "")
        assert "11" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "n, value",
    [(3, "a"), (3, "0.5"), (3, "1e1"), (3, True), (3, None), (True, 0.5), (3.0, 0.5)],
    ids=["text", "decimal-text", "exponent-text", "boolean", "null", "n-boolean", "n-float"],
)
def test_simulate_rejects_non_numeric_coordinate(capsys, tmp_path, n, value):
    # float() would read "0.5", "1e1" and true
    doc = {
        "n": n,
        "paths": [
            [[0.0, value, 0.0], [1.0, value, 0.0]],
            [[0.0, 1.0, 0.1], [1.0, 1.0, 0.1]],
            [[0.0, 0.2, 1.0], [1.0, 0.2, 1.0]],
        ],
    }
    path = tmp_path / "text.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "simulate", str(path))
    assert code == 2 and out == ""
    assert "malformed" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "content",
    [None, b'{"n": 3, "paths": [\xff]}', b"[" * 100000 + b"]" * 100000,
     b'{"n": 3, "paths": [[[0, 1' + b"0" * 400 + b', 0]], [], []]}'],
    ids=["directory", "not-utf-8", "nested", "huge-integer"],
)
def test_simulate_unreadable_file_is_one_line(capsys, tmp_path, content):
    path = tmp_path
    if content is not None:
        path = tmp_path / "motion.json"
        path.write_bytes(content)
    code, out, err = run(capsys, "simulate", str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def resting_doc(points, intervals):
    # points on the parabola y = x^2, so no three are ever collinear
    times = [k / intervals for k in range(intervals + 1)]
    return {"n": points,
            "paths": [[[t, float(x), float(x * x)] for t in times] for x in range(points)]}


def refuse_fraction(*args):
    raise AssertionError("a Fraction was built")


def test_simulate_file_size_is_bounded(capsys, tmp_path, monkeypatch):
    # the work bound reads the floats: no exact number is built on either side
    monkeypatch.setattr(collinearity, "Fraction", refuse_fraction)
    path = tmp_path / "motion.json"
    intervals = collinearity.MAX_TRIPLE_INTERVALS // math.comb(MAX_STRANDS, 3)
    path.write_text(json.dumps(resting_doc(MAX_STRANDS, intervals)))
    assert run(capsys, "simulate", str(path))[:2] == (0, '{"n": 32, "events": [], "word": []}\n')
    for doc, text in [(resting_doc(MAX_STRANDS, intervals + 1),
                       f"over {collinearity.MAX_TRIPLE_INTERVALS} triple-intervals weighted"),
                      (resting_doc(MAX_STRANDS + 1, 1), f"at most {MAX_STRANDS} points")]:
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "simulate", str(path))
        assert (code, out) == (2, "")
        assert text in err and len(err.splitlines()) == 1

    # the bytes are bounded before the file is parsed
    monkeypatch.undo()
    path.write_text(json.dumps(resting_doc(3, 1)))
    size = path.stat().st_size
    monkeypatch.setattr(collinearity, "MAX_FILE_BYTES", size)
    assert run(capsys, "simulate", str(path))[0] == 0
    monkeypatch.setattr(collinearity, "MAX_FILE_BYTES", size - 1)
    monkeypatch.setattr(collinearity, "json", None)
    code, out, err = run(capsys, "simulate", str(path))
    assert (code, out) == (2, "")
    assert f"larger than {size - 1} bytes" in err and len(err.splitlines()) == 1


def test_simulate_work_counts_integer_size(capsys, tmp_path, monkeypatch):
    # three resting points whose integers over the common scale 2^100 are
    # 2^300, 1 and 2^100: 301 bits and one for a difference, so the one
    # triple-interval weighs 3^2
    weight = math.ceil(302 / collinearity.INTERVAL_BITS) ** 2
    assert weight == 9
    points = [(2.0 ** 200, 0.0), (0.0, 2.0 ** -100), (1.0, 1.0)]
    path = tmp_path / "motion.json"
    path.write_text(json.dumps({"n": 3, "paths": [[[0, x, y], [1, x, y]] for x, y in points]}))
    monkeypatch.setattr(collinearity, "MAX_TRIPLE_INTERVALS", weight)
    assert run(capsys, "simulate", str(path))[:2] == (0, '{"n": 3, "events": [], "word": []}\n')
    monkeypatch.setattr(collinearity, "MAX_TRIPLE_INTERVALS", weight - 1)
    code, out, err = run(capsys, "simulate", str(path))
    assert (code, out) == (2, "")
    assert err == ("malformed trajectory file: over 8 triple-intervals weighted by integer "
                   "size by time 1.000000\n")


def test_simulate_refuses_misaligned_breakpoints_before_exact_arithmetic(
        capsys, tmp_path, monkeypatch):
    # three points, each turning at its own 10000 times: every breakpoint
    # time falls inside the other paths' segments, whose points would be
    # interpolated in Fractions
    rng = random.Random(3)
    paths = []
    for x, y in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]:
        times = sorted(rng.random() for _ in range(10000))
        paths.append([[0.0, x, y]] + [[t, x + rng.random(), y + rng.random()] for t in times]
                     + [[1.0, x, y]])
    path = tmp_path / "motion.json"
    path.write_text(json.dumps({"n": 3, "paths": paths}))
    assert path.stat().st_size <= collinearity.MAX_FILE_BYTES
    monkeypatch.setattr(collinearity, "Fraction", refuse_fraction)
    code, out, err = run(capsys, "simulate", str(path))
    assert (code, out) == (2, "")
    assert "triple-intervals weighted by integer size" in err and len(err.splitlines()) == 1


def test_simulate_refuses_meeting_points(capsys, tmp_path):
    # points 1 and 2 meet at t = 0.1, inside a breakpoint interval; detection
    # finds it and refuses the file
    paths = [[[0.0, 0.0, 0.0], [0.5, 5.0, 0.0], [1.0, 0.0, 0.0]],
             [[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
             [[0.0, 0.0, 3.0], [1.0, 0.0, 3.0]]]
    path = tmp_path / "motion.json"
    path.write_text(json.dumps({"n": 3, "paths": paths}))
    assert run(capsys, "simulate", str(path)) == (
        2, "", "malformed trajectory file: points 1 and 2 coincide at time 0.100000\n")


def test_simulate_refuses_coordinates_of_mixed_magnitude(capsys, tmp_path):
    # 32 moving points, 13 shared intervals (inside the unweighted count),
    # each point at scale 2^-300, 1 or 2^300: minutes of exact arithmetic
    rng = random.Random(5)
    paths = []
    for _ in range(32):
        scale = 2.0 ** rng.choice((-300, 0, 300))
        coords = [[rng.uniform(-2, 2) * scale for _ in range(2)] for _ in range(13)]
        paths.append([[k / 13, *xy] for k, xy in enumerate(coords)] + [[1.0, *coords[0]]])
    path = tmp_path / "motion.json"
    path.write_text(json.dumps({"n": 32, "paths": paths}))
    code, out, err = run(capsys, "simulate", str(path))
    assert (code, out) == (2, "")
    assert "weighted by integer size" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "value",
    ["1e999999999", f"-2.5E-{MAX_DECIMAL_EXPONENT + 1}", "7" * (MAX_RATIONAL_TEXT + 1)],
    ids=["exponent", "negative-exponent", "length"],
)
@pytest.mark.parametrize(
    "argv",
    [("rep", "--set", "t1={}", "--set-rest", "1"), ("rep", "--set-rest={}"),
     ("burau", "--set-t={}")],
    ids=["set", "set-rest", "set-t"],
)
def test_rational_input_is_bounded_before_it_is_built(capsys, monkeypatch, argv, value):
    def refuse(text):
        raise AssertionError(f"Fraction({text!r}) was built")

    monkeypatch.setattr(cli, "Fraction", refuse)
    command, *flags = argv
    code, out, err = run(capsys, command, "--n", "3", "s1^2",
                         *(flag.format(value) for flag in flags))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert str(MAX_DECIMAL_EXPONENT) in err or str(MAX_RATIONAL_TEXT) in err


def specialised_bits(matrix, value):
    """The specialisation's charge: |exponent of t| times the bits of t,
    over every term; a Burau key is its exponent of t."""
    value = Fraction(value)
    bits = value.numerator.bit_length() + value.denominator.bit_length()
    return sum(abs(e) * bits for _, _, v in matrix.nonzero_entries() for e in v.terms)


def rep_edge(braid, values, rest):
    """The work at which the first charge of the fold meets the budget, and
    the refusal one unit below it."""
    assignment = strand_assignment(3, {k: Fraction(v) for k, v in values.items()},
                                   Fraction(rest))
    work = first_charge(phi_pure(BraidWord.parse(braid, 3)), assignment)
    return work, f"the product of {METER_INTERVAL} non-identity letters passes"


def burau_edge(braid, value, burau=burau_unreduced):
    """The same for the specialisation of the Burau matrix."""
    return specialised_bits(burau(BraidWord.parse(braid, 3)), value), "specialising passes"


# s1^2k on three strands: 2k phi letters, alternately a(3,1,2) and a(3,2,1),
# each of which writes lines, except that with only t1 set a(3,1,2) writes
# none; so each fold below is charged once.  Powers of t reach 32 in the
# Burau matrix of s1^32; a value of 1e30 has 100 + 1 bits.
@pytest.mark.parametrize(
    "argv, edge",
    [(("rep", "--n", "3", "s1^32", "--set", "t1=1e30", "--set-rest", "1"),
      (rep_edge, "s1^32", {"t1": "1e30"}, 1)),
     (("rep", "--n", "3", "s1^16", "--set-rest=-1e-30"), (rep_edge, "s1^16", {}, "-1e-30")),
     (("burau", "--n", "3", "s1^32", "--set-t", "1e30"), (burau_edge, "s1^32", "1e30")),
     (("burau", "--n", "3", "s1^-32", "--reduced", "--set-t", "1e-30"),
      (burau_edge, "s1^-32", "1e-30", burau_reduced))],
    ids=["rep-set", "rep-set-rest", "burau", "burau-inverse-reduced"],
)
def test_specialised_work_is_bounded(capsys, monkeypatch, argv, edge):
    function, *args = edge
    work, refusal = function(*args)
    monkeypatch.setattr(matrixrep, "WORK_BUDGET", work)
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and err == ""
    monkeypatch.setattr(matrixrep, "WORK_BUDGET", work - 1)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(refusal) and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["rep", "burau"])
def test_large_values_are_refused_before_the_numeric_work(capsys, monkeypatch, command):
    if command == "rep":
        # unmetered, Bigelow's braid at t1 = 10^10000 folds for minutes: the
        # first charge refuses it.  At t1 = 10^1000 the first charge is on
        # one side of the budget and the second on the other.
        def argv(value):
            return ("rep", "--n", "5", "--bigelow", "--set", f"t1={value}", "--set-rest", "1",
                    "--entry", "x_1_2", "x_1_2")

        code, out, err = run(capsys, *argv("1e10000"))
        assert (code, out) == (2, "")
        assert err.startswith(f"the product of {METER_INTERVAL} non-identity letters passes")
        assignment = strand_assignment(5, {"t1": Fraction("1e1000")})
        work = first_charge(phi_pure(bigelow_beta(5)), assignment)
        for budget, letters in ((work - 1, METER_INTERVAL), (work, 2 * METER_INTERVAL)):
            monkeypatch.setattr(matrixrep, "WORK_BUDGET", budget)
            code, out, err = run(capsys, *argv("1e1000"))
            assert (code, out) == (2, "")
            assert err.startswith(f"the product of {letters} non-identity letters passes")
    else:
        # the specialisation is refused before any entry is evaluated
        braid = " ".join(["s1 s2 s3 s4"] * 50)
        argv = ("burau", "--n", "5", braid, "--set-t", "1e80")
        work = specialised_bits(burau_unreduced(BraidWord.parse(braid, 5)), "1e80")
        monkeypatch.setattr(matrixrep, "WORK_BUDGET", work)
        assert run(capsys, *argv)[0] == 0

        def refuse(*args):
            raise AssertionError("an entry was evaluated")

        monkeypatch.setattr(LaurentPoly, "eval", refuse)
        monkeypatch.setattr(matrixrep, "WORK_BUDGET", work - 1)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("specialising passes")
    assert len(err.splitlines()) == 1


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
    reason="needs a limit below 5000 digits on int to text conversion",
)
@pytest.mark.parametrize(
    "argv",
    [("rep", "--n", "3", "s1^2", "--set", "t1=1e5000", "--set-rest", "1",
      "--entry", "x_1_2", "x_1_2"),
     ("rep", "--n", "3", "s1^2", "--set", "t1=1e5000", "--set-rest", "1"),
     ("burau", "--n", "3", "s1", "--set-t", "1e5000")],
    ids=["rep-entry", "rep", "burau"],
)
def test_result_too_large_to_print_is_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert f"more than {sys.get_int_max_str_digits()} digits" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("value", ["-2/3", "-1e3", "-.5"])
@pytest.mark.parametrize(
    "argv",
    [("burau", "--n", "3", "s1", "--set-t"),
     ("rep", "--n", "3", "s1^2", "--set-rest")],
    ids=["set-t", "set-rest"],
)
def test_negative_value_as_separate_word(capsys, argv, value):
    # argparse reads "-2/3" and "-1e3" as options unless they are attached
    code, out, err = run(capsys, *argv, value)
    assert code == 0 and err == ""
    *head, flag = argv
    assert run(capsys, *head, f"{flag}={value}") == (0, out, "")


def test_value_option_without_value_is_a_usage_error(capsys):
    code, out, err = run(capsys, "burau", "--n", "3", "s1", "--set-t")
    assert code == 2 and out == "" and "--set-t" in err
    code, out, err = run(capsys, "burau", "--n", "3", "s1", "--set-t", "--reduced")
    assert code == 2 and out == "" and "--set-t" in err
