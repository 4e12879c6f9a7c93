import json
import sys

import pytest

from braidrep import cli, collinearity
from braidrep.braids import MAX_LETTERS
from braidrep.cli import (
    MAX_DECIMAL_EXPONENT,
    MAX_RATIONAL_TEXT,
    MAX_STRANDS,
    main,
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


def test_rep_symbolic_guard_for_long_braids(capsys):
    # a hard bound: no option lifts it, the way out is to specialise
    code, _, err = run(capsys, "rep", "--n", "5", "--bigelow")
    assert code == 2
    assert "--set-rest" in err
    assert "--symbolic" not in err


def test_rep_symbolic_output_for_short_braids(capsys):
    # x_12 passes through the (k,j) case of a(3,2,1) and then the (j,k)
    # case of a(3,1,2), picking up t1^-1 and s1
    code, out, _ = run(capsys, "rep", "--n", "3", "s1^2")
    assert code == 0
    doc = json.loads(out)
    values = {(e["row"], e["col"]): e["value"] for e in doc["entries"]}
    assert values[(0, 0)] == "t1^-1*s1"


def test_burau_reduced_of_kernel_braid_is_identity(capsys):
    code, out, _ = run(capsys, "burau", "--n", "5", "--reduced", "--bigelow")
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


def test_check_gn_relations_accepts_eight_strands(capsys, monkeypatch):
    # the n = 8 suite takes seconds; the bound check is what is tested here
    calls = []

    def fake_check(n):
        calls.append(n)
        return [{"relation": "inverse", "instance": "stub", "ok": True}]

    monkeypatch.setattr(cli, "check_relations", fake_check)
    code, out, _ = run(capsys, "check", "--n", "8", "gn-relations")
    assert code == 0 and calls == [8]
    assert json.loads(out)["passed"] is True


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
                         "t2, t3, s1, s2, s3\n")],
    ids=["unknown", "zero", "zero-rest", "unset"],
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


def test_simulate_rejects_non_numeric_coordinate(capsys, tmp_path):
    doc = {
        "n": 3,
        "paths": [
            [[0.0, "a", 0.0], [1.0, 0.0, 0.0]],
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
