"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

import pytest

from braidrep.braids import (
    BraidWord,
    COMMUTATOR_ABA_B,
    COMMUTATOR_A_B_AB,
    DEFAULT_COMMUTATOR_CONVENTION,
    bigelow_beta,
)
from braidrep.collinearity import calibrate_against_phi
from braidrep.gn3 import GnWord, SemidirectElement, phi_pure
from braidrep.matrixrep import (
    DEFAULT_PRODUCT_ORDER,
    PRODUCT_REVERSED_ORDER,
    PRODUCT_WORD_ORDER,
    burau_reduced,
    check_braid_relations,
    check_relations,
    corner_entry,
    numeric_rep_of_word,
    rep_of_word,
    report_passed,
    strand_assignment,
)
from braidrep.permutations import Permutation


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} - {detail}")
    assert ok, detail


def random_braid(n, length, rng):
    return BraidWord(
        n, [(rng.randint(1, n - 1), rng.choice([1, -1])) for _ in range(length)]
    )


def random_gnword(n, length, rng):
    return GnWord(
        n,
        [
            (tuple(rng.sample(range(1, n + 1), 3)), rng.choice([1, -1]))
            for _ in range(length)
        ],
    )


def purify(w):
    """Append adjacent swaps until the strand permutation is trivial."""
    extra = []
    images = list(w.permutation().images)
    changed = True
    while changed:
        changed = False
        for j in range(1, w.n):
            if images.index(j) > images.index(j + 1):
                a, b = images.index(j), images.index(j + 1)
                images[a], images[b] = images[b], images[a]
                extra.append((j, 1))
                changed = True
    return w * BraidWord(w.n, extra)


@pytest.fixture(scope="module")
def calibration():
    """Search the two commutator and two product-order conventions for the
    combination reproducing the published corner value at n = 5."""
    assignment = strand_assignment(5, {"t1": -1})
    passing = []
    results = {}
    for convention in (COMMUTATOR_ABA_B, COMMUTATOR_A_B_AB):
        word = phi_pure(bigelow_beta(5, convention))
        for order in (PRODUCT_WORD_ORDER, PRODUCT_REVERSED_ORDER):
            matrix = numeric_rep_of_word(word, assignment, order)
            value = corner_entry(matrix, (1, 2), (1, 2))
            results[(convention, order)] = (value, matrix.is_identity())
            if value == -399 and not matrix.is_identity():
                passing.append((convention, order))
    return {"passing": passing, "results": results}


def test_criterion_1_corner_entry_on_five_strands(calibration):
    passing = calibration["passing"]
    ok = len(passing) >= 1
    combos = ", ".join(f"({c}, {o})" for c, o in passing) or "none"
    _report(
        1,
        ok,
        f"corner entry -399 at t1=-1, rest 1, matrix not the identity; "
        f"passing conventions: {combos}",
    )
    # the recorded build-time defaults must be a passing combination
    assert (DEFAULT_COMMUTATOR_CONVENTION, DEFAULT_PRODUCT_ORDER) in passing


def test_criterion_1_runtime_budget():
    start = time.perf_counter()
    assignment = strand_assignment(5, {"t1": -1})
    word = phi_pure(bigelow_beta(5))
    matrix = numeric_rep_of_word(word, assignment)
    value = corner_entry(matrix, (1, 2), (1, 2))
    elapsed = time.perf_counter() - start
    _report(
        1,
        value == -399 and elapsed < 10.0,
        f"default-convention recomputation gave {value} in {elapsed:.2f}s "
        f"(budget 10s)",
    )


def test_criterion_2_corner_entry_on_six_strands(calibration):
    convention, order = calibration["passing"][0]
    assignment = strand_assignment(6, {"t1": -1, "s1": -1})
    word = phi_pure(bigelow_beta(6, convention))
    matrix = numeric_rep_of_word(word, assignment, order)
    value = corner_entry(matrix, (1, 2), (1, 2))
    ok = value == -399 and not matrix.is_identity() and matrix.dim == 30
    _report(
        2,
        ok,
        f"n=6 corner entry {value} at t1=s1=-1, rest 1, under ({convention}, "
        f"{order}); matrix is {'not ' if not matrix.is_identity() else ''}the identity",
    )


def test_criterion_3_burau_kernel():
    start = time.perf_counter()
    matrix = burau_reduced(bigelow_beta(5))
    elapsed = time.perf_counter() - start
    ok = matrix.dim == 4 and matrix.is_identity() and elapsed < 1.0
    _report(
        3,
        ok,
        f"reduced Burau of the kernel braid is the 4x4 identity "
        f"({elapsed:.3f}s, budget 1s)",
    )


def test_criterion_4_purity():
    ok5 = bigelow_beta(5).permutation().is_identity()
    ok6 = bigelow_beta(6).permutation().is_identity()
    _report(4, ok5 and ok6, "kernel braid is pure on 5 and on 6 strands")


def test_criterion_5_group_relation_suite():
    start = time.perf_counter()
    report4 = check_relations(4)
    report5 = check_relations(5)
    elapsed = time.perf_counter() - start
    ok = report_passed(report4) and report_passed(report5) and elapsed < 30.0
    r2_count = sum(e["relation"] == 2 for e in report5)
    tetra = any(
        e["relation"] == 3 and "(1,2,3,4)" in e["instance"] and e["ok"]
        for e in report4
    )
    _report(
        5,
        ok and tetra and r2_count == 540,
        f"relations 1-3 hold symbolically at n=4 ({len(report4)} instances) "
        f"and n=5 ({len(report5)} instances, {r2_count} commuting pairs) "
        f"in {elapsed:.2f}s (budget 30s)",
    )


def test_criterion_6_braid_relation_images():
    reports = {n: check_braid_relations(n) for n in (3, 4, 5)}
    ok = all(report_passed(r) for r in reports.values())
    counts = {n: len(r) for n, r in reports.items()}
    _report(
        6,
        ok,
        f"Artin and far-commutativity images agree symbolically for "
        f"n=3,4,5 (instances: {counts})",
    )


def test_criterion_7_homomorphism_and_associativity():
    rng = random.Random(47)

    def random_element(n):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        return SemidirectElement(
            Permutation(images), random_gnword(n, rng.randint(0, 5), rng)
        )

    assoc_failures = 0
    for _ in range(1000):
        a, b, c = (random_element(5) for _ in range(3))
        if (a * b) * c != a * (b * c):
            assoc_failures += 1

    mult_failures = 0
    reduce_failures = 0
    for _ in range(200):
        u = random_gnword(4, rng.randint(0, 5), rng)
        v = random_gnword(4, rng.randint(0, 5), rng)
        if rep_of_word(u * v) != rep_of_word(u) * rep_of_word(v):
            mult_failures += 1
        w = random_gnword(4, rng.randint(0, 8), rng)
        if rep_of_word(w.free_reduce()) != rep_of_word(w):
            reduce_failures += 1

    ok = assoc_failures == 0 and mult_failures == 0 and reduce_failures == 0
    _report(
        7,
        ok,
        "semidirect associativity on 1000 random triples; matrix "
        "multiplicativity and reduction invariance on 200 random words",
    )


def test_criterion_8_oracle_agreement():
    ok = True
    details = []
    for n in range(3, 7):
        entries = calibrate_against_phi(n)
        exact = all(e["match"] == "exact" for e in entries)
        counts = all(e["events"] == n - 2 for e in entries)
        ok = ok and exact and counts
        details.append(f"n={n}: {len(entries)} generators exact")
    _report(8, ok, "geometric event words match the algebraic images (" +
            "; ".join(details) + ")")


def test_criterion_9_all_ones_degeneracy():
    rng = random.Random(48)
    checked = 0
    ok = True
    for n in (4, 5):
        ones = strand_assignment(n)
        for _ in range(25):
            w = purify(random_braid(n, rng.randint(1, 10), rng))
            if rng.random() < 0.5:
                v = random_braid(n, rng.randint(0, 4), rng)
                w = v.inverse() * w * v
            assert w.permutation().is_identity()
            matrix = numeric_rep_of_word(phi_pure(w), ones)
            ok = ok and matrix.is_identity()
            checked += 1
    _report(
        9,
        ok and checked == 50,
        f"all-ones specialisation is the identity for {checked} random "
        f"pure braids at n=4,5",
    )
