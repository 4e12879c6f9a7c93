"""The defining-relation suite of the G^3_n representation: its report
against the plain per-side fold of tests/oracle.py, at every n the command
line admits and with deliberately broken generators, and the locality that
lets the n = 6 suite stand for every n."""

import json
import random

import pytest

import oracle
from braidrep import matrixrep
from braidrep.cli import main
from braidrep.gn3 import GnWord
from braidrep.laurent import LaurentRing
from braidrep.matrixrep import basis_index, check_relations, rep_of_word, report_passed


@pytest.mark.parametrize("n", (4, 5, 6, 7, 8))
def test_relation_report_matches_reference(n):
    assert check_relations(n) == oracle.relation_report(n)


@pytest.mark.parametrize("n, counts", [
    (6, (120, 3600, 360)),
    (7, (210, 13860, 840)),
    (8, (336, 40320, 1680)),
])
def test_relation_suite_passes_up_to_eight_strands(n, counts):
    report = check_relations(n)
    assert report_passed(report)
    assert tuple(sum(e["relation"] == r for e in report) for r in (1, 2, 3)) == counts


def square_s(rules, index):
    """a(1,2,3) scales x_23 by s2^2 instead of s2."""
    jk = index[(2, 3)]
    return tuple((target, tuple((c * c, source) for c, source in terms))
                 if target == jk else (target, terms) for target, terms in rules)


def read_x45(rules, index):
    """a(1,2,3)'s image of x_12 also takes x_45."""
    ij, x45 = index[(1, 2)], index[(4, 5)]
    return tuple((target, terms + ((None, x45),))
                 if target == ij else (target, terms) for target, terms in rules)


def break_triple_123(monkeypatch, brk):
    """Patch matrixrep._gn_ops so that the rewrites of a(1,2,3) go through
    brk; every other letter keeps its rewrites."""
    real = matrixrep._gn_ops

    def gn_ops(n, scalar, one):
        ops, index = real(n, scalar, one), basis_index(n)
        return lambda triple: brk(ops(triple), index) if triple == (1, 2, 3) else ops(triple)

    monkeypatch.setattr(matrixrep, "_gn_ops", gn_ops)


SQUARE_S_FAILURES = [
    "a(1, 2, 3) a(3, 2, 1) = 1",
    "a(3, 2, 1) a(1, 2, 3) = 1",
    "tetrahedron (1,2,3,4)",
    "tetrahedron (1,2,4,3)",
    "tetrahedron (1,2,3,5)",
    "tetrahedron (1,2,5,3)",
]


@pytest.mark.parametrize("brk, failures, commuting", [
    (square_s, 6, 0),
    (read_x45, 22, 12),
], ids=("square-s", "read-x45"))
def test_broken_generator_fails_as_in_reference(monkeypatch, brk, failures, commuting):
    break_triple_123(monkeypatch, brk)
    report = check_relations(5)
    assert report == oracle.relation_report(5)
    failed = [e for e in report if not e["ok"]]
    assert len(failed) == failures
    assert sum(e["relation"] == 2 for e in failed) == commuting


@pytest.mark.parametrize("brk", (square_s, read_x45), ids=("square-s", "read-x45"))
def test_check_gn_relations_reports_a_broken_generator(capsys, monkeypatch, brk):
    break_triple_123(monkeypatch, brk)
    expected = [e["instance"] for e in oracle.relation_report(5) if not e["ok"]]
    code = main(["check", "--n", "5", "gn-relations"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and doc["passed"] is False and doc["failures"] == expected
    if brk is square_s:
        assert expected == SQUARE_S_FAILURES


def test_word_on_six_indices_folds_as_on_six_strands():
    # a word whose letters use only the indices S rewrites only the lines
    # of pairs inside S, and its S-block is the fold of the word relabelled
    # to 1..6 with t_m, s_m read as t_S[m], s_S[m]; every relation instance
    # uses at most six indices, so the n = 6 suite covers every n
    rng = random.Random("locality")
    ring = LaurentRing.for_strands(9)
    index9, pairs6 = basis_index(9), matrixrep.basis_pairs(6)
    for length in (0, 5, 10, 15, 20, 25):
        s = sorted(rng.sample(range(1, 10), 6))
        label = {p: m for m, p in enumerate(s, 1)}
        letters = [(tuple(rng.sample(s, 3)), rng.choice((1, -1))) for _ in range(length)]
        relabelled = GnWord(6, [(tuple(label[p] for p in t), e) for t, e in letters])

        def renamed(name):
            name = name[0] + str(s[int(name[1:]) - 1])
            return ring.var(name), ring.var(name, -1)

        lines6 = matrixrep._word_lines(relabelled, renamed, ring.one(),
                                       matrixrep.DEFAULT_PRODUCT_ORDER)
        expected = {c: {c: ring.one()} for pq, c in index9.items() if not set(pq) <= set(s)}
        for c6, line in enumerate(lines6):
            p, q = pairs6[c6]
            for r6, v in line.items():
                u, w = pairs6[r6]
                expected.setdefault(index9[s[u - 1], s[w - 1]], {})[index9[s[p - 1], s[q - 1]]] = v
        assert rep_of_word(GnWord(9, letters)).rows == expected
