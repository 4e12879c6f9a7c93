import random
from fractions import Fraction

import pytest

from braidrep.braids import BraidWord, bigelow_beta
from braidrep.gn3 import GnWord, NotPureError, phi_pure
from braidrep.laurent import LaurentRing
from braidrep.matrixrep import (
    PRODUCT_REVERSED_ORDER,
    PolyMatrix,
    basis_index,
    basis_pairs,
    burau_reduced,
    burau_unreduced,
    check_braid_relations,
    check_relations,
    corner_entry,
    numeric_rep_of_word,
    rep_of_word,
    report_passed,
    strand_assignment,
)
from oracle import word_product


def identity_for(n):
    return rep_of_word(GnWord(n))


def letter(n, i, j, k, exponent=1):
    """The matrix of one letter, as the fold of a one-letter word."""
    return rep_of_word(GnWord(n, [((i, j, k), exponent)]))


def random_gnword(n, length, rng):
    return GnWord(
        n,
        [
            (tuple(rng.sample(range(1, n + 1), 3)), rng.choice([1, -1]))
            for _ in range(length)
        ],
    )


def laplace_det(rows, ring, cols):
    """Cofactor-expansion determinant; independent of the library's
    matrix machinery, usable only for small matrices."""
    if not cols:
        return ring.one()
    r = len(rows) - len(cols)
    total = ring.zero()
    sign = 1
    for pos, c in enumerate(cols):
        v = rows[r].get(c)
        if v is not None:
            minor = laplace_det(rows, ring, cols[:pos] + cols[pos + 1 :])
            term = v * minor
            total = total + (term if sign > 0 else -term)
        sign = -sign
    return total


def test_basis_order():
    assert basis_pairs(3) == [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
    assert basis_index(5)[(1, 2)] == 0


def test_generator_column_of_x_ij():
    ring = LaurentRing.for_strands(5)
    m = letter(5, 1, 2, 3)
    assert corner_entry(m, (1, 2), (1, 2)) == ring.var("t1")
    assert corner_entry(m, (1, 3), (1, 2)) == ring.one() - ring.var("t1")


def test_generator_fixes_unrelated_basis_vectors():
    ring = LaurentRing.for_strands(5)
    m = letter(5, 1, 2, 3)
    assert corner_entry(m, (4, 5), (4, 5)) == ring.one()
    assert corner_entry(m, (1, 2), (4, 5)) == 0


def test_generator_column_of_x_jk():
    ring = LaurentRing.for_strands(5)
    m = letter(5, 1, 2, 3)
    assert corner_entry(m, (2, 3), (2, 3)) == ring.var("s2")
    assert corner_entry(m, (2, 1), (2, 1)) == ring.var("s2", -1)
    assert corner_entry(m, (3, 2), (3, 2)) == ring.var("t3", -1)
    assert corner_entry(m, (3, 1), (3, 2)) == ring.one() - ring.var("t3", -1)


def test_support_locality():
    # a generator touches only the six columns (and rows) of ordered pairs
    # inside its index triple
    n = 5
    m = letter(n, 2, 4, 5)
    special = {(p, q) for p in (2, 4, 5) for q in (2, 4, 5) if p != q}
    index = basis_index(n)
    for col_pair, c in index.items():
        col = {r: row[c] for r, row in m.rows.items() if c in row}
        if col_pair in special:
            continue
        assert col == {index[col_pair]: 1}
    for row_pair, r in index.items():
        if row_pair in special:
            continue
        assert m.rows.get(r, {}) == {r: 1}


def test_generator_determinant():
    # block-triangular structure forces det = t_i / t_k; checked against a
    # cofactor-expansion oracle on the 6x6 block of pairs inside the triple
    n = 4
    ring = LaurentRing.for_strands(n)
    for (i, j, k) in [(1, 2, 3), (2, 4, 1), (3, 1, 4)]:
        m = letter(n, i, j, k)
        index = basis_index(n)
        special = sorted(
            index[(p, q)] for p in (i, j, k) for q in (i, j, k) if p != q
        )
        rows = [
            {
                special.index(c): v
                for c, v in m.rows.get(r, {}).items()
                if c in special
            }
            for r in special
        ]
        det = laplace_det(rows, ring, tuple(range(6)))
        assert det == ring.var(f"t{i}") * ring.var(f"t{k}", -1)


def test_inverse_letter_is_reversed_triple():
    n = 4
    assert letter(n, 1, 2, 3, -1) == letter(n, 3, 2, 1, 1)


def test_generator_index_validation():
    # the fold trusts its words; GnWord rejects malformed letters
    with pytest.raises(ValueError):
        GnWord(4, [((1, 1, 2), 1)])
    with pytest.raises(ValueError):
        GnWord(4, [((1, 2, 5), 1)])
    with pytest.raises(ValueError):
        GnWord(4, [((1, 2, 3), 2)])


def test_word_of_reversed_triple_pair_maps_to_identity():
    w = GnWord(4, [((1, 2, 3), 1), ((3, 2, 1), 1)])
    assert rep_of_word(w).is_identity()


def test_empty_word_maps_to_identity():
    assert rep_of_word(GnWord(4)).is_identity()


def test_disjoint_generators_commute():
    a = GnWord(6, [((1, 2, 3), 1), ((4, 5, 6), 1)])
    b = GnWord(6, [((4, 5, 6), 1), ((1, 2, 3), 1)])
    assert rep_of_word(a) == rep_of_word(b)


def test_rep_is_multiplicative_and_reduction_invariant():
    rng = random.Random(31)
    for _ in range(40):
        u = random_gnword(4, rng.randint(0, 5), rng)
        v = random_gnword(4, rng.randint(0, 5), rng)
        assert rep_of_word(u * v) == rep_of_word(u) * rep_of_word(v)
        assert rep_of_word((u * v).free_reduce()) == rep_of_word(u * v)


def test_reversed_product_order_is_antimultiplicative():
    rng = random.Random(32)
    for _ in range(10):
        u = random_gnword(4, rng.randint(1, 4), rng)
        v = random_gnword(4, rng.randint(1, 4), rng)
        lhs = rep_of_word(u * v, PRODUCT_REVERSED_ORDER)
        rhs = rep_of_word(v, PRODUCT_REVERSED_ORDER) * rep_of_word(
            u, PRODUCT_REVERSED_ORDER
        )
        assert lhs == rhs


def test_pure_braid_matrix_of_generator_square():
    word = phi_pure(BraidWord.parse("s1^2", 3))
    m = rep_of_word(word)
    assert m.rows == word_product(word)
    assert m.dim == 6
    assert not m.is_identity()


def test_pure_braid_matrix_of_empty_braid():
    assert rep_of_word(phi_pure(BraidWord(3))).is_identity()


def test_pure_braid_matrix_rejects_non_pure():
    with pytest.raises(NotPureError):
        rep_of_word(phi_pure(BraidWord.parse("s1", 3)))


def test_is_identity_needs_every_off_diagonal_entry_zero():
    assert PolyMatrix(2, {0: {0: 1}, 1: {1: 1}}).is_identity()
    assert not PolyMatrix(2, {0: {0: 1, 1: 5}, 1: {1: 1}}).is_identity()
    assert not PolyMatrix(2, {0: {0: 1}}).is_identity()


def test_specialize_identity():
    m = identity_for(4)
    assert m.specialize(strand_assignment(4)).is_identity()


def test_specialize_generator_at_minus_one():
    # substituting t1 = -1 into the x_12 column gives -x_12 + 2 x_13
    m = letter(5, 1, 2, 3)
    num = m.specialize(strand_assignment(5, {"t1": -1}))
    index = basis_index(5)
    assert num.entry(index[(1, 2)], index[(1, 2)]) == -1
    assert num.entry(index[(1, 3)], index[(1, 2)]) == 2


def test_specialize_commutes_with_products():
    rng = random.Random(33)
    assignment = strand_assignment(
        4, {"t1": Fraction(2, 3), "s2": -2, "t4": Fraction(-1, 5)}
    )
    for _ in range(20):
        u = random_gnword(4, rng.randint(0, 4), rng)
        v = random_gnword(4, rng.randint(0, 4), rng)
        lhs = (rep_of_word(u) * rep_of_word(v)).specialize(assignment)
        rhs = rep_of_word(u).specialize(assignment) * rep_of_word(v).specialize(
            assignment
        )
        assert lhs == rhs


def test_numeric_fold_matches_symbolic_specialisation():
    rng = random.Random(34)
    assignment = strand_assignment(4, {"t2": -1, "s3": Fraction(1, 2)})
    for _ in range(20):
        w = random_gnword(4, rng.randint(0, 6), rng)
        assert numeric_rep_of_word(w, assignment) == rep_of_word(w).specialize(
            assignment
        )


ALL_ONES_BUT_T1 = {"t1": 2, "t2": 1, "t3": 1, "s1": 1, "s2": 1, "s3": 1}


@pytest.mark.parametrize(
    "values, message",
    [({k: v for k, v in ALL_ONES_BUT_T1.items() if k != "s3"}, "s3"),
     ({**ALL_ONES_BUT_T1, "t4": 1}, "unknown variable 't4'"),
     ({**ALL_ONES_BUT_T1, "s2": 0}, "zero assignments")],
    ids=["missing", "unknown", "zero"],
)
def test_strand_assignment_without_rest_checks_every_value(values, message):
    with pytest.raises(ValueError, match=message):
        strand_assignment(3, values, rest=None)
    with pytest.raises(ValueError, match=message):
        numeric_rep_of_word(GnWord(3), values)


def test_numeric_fold_of_plain_int_values_is_exact():
    # t1 = 2 is not a unit of Z, so t1^-1 must be the Fraction 1/2, not 0.5
    # (the corner is t1^-2 = 1/4); columns no letter touched keep the int 1
    w = GnWord(3, [((3, 2, 1), 1), ((1, 2, 3), -1), ((3, 1, 2), 1)])
    matrix = numeric_rep_of_word(w, ALL_ONES_BUT_T1)
    values = [v for _, _, v in matrix.nonzero_entries()]
    assert all(type(v) is Fraction or v == 1 and type(v) is int for v in values)
    assert Fraction(1, 4) in values
    assert matrix == rep_of_word(w).specialize(strand_assignment(3, ALL_ONES_BUT_T1))


def test_corner_entry_of_identity():
    m = identity_for(5)
    assert corner_entry(m, (1, 2), (1, 2)) == 1
    assert corner_entry(m, (1, 2), (1, 3)) == 0
    num = m.specialize(strand_assignment(5))
    assert corner_entry(num, (1, 2), (1, 2)) == 1
    with pytest.raises(ValueError):
        corner_entry(m, (1, 1), (1, 2))


def test_all_ones_specialisation_collapses_generators():
    rng = random.Random(35)
    ones = strand_assignment(4)
    for _ in range(20):
        w = random_gnword(4, rng.randint(0, 8), rng)
        assert numeric_rep_of_word(w, ones).is_identity()


def test_relation_suite_n4():
    report = check_relations(4)
    assert report_passed(report)
    assert any(
        e["relation"] == 3 and "(1,2,3,4)" in e["instance"] for e in report
    )
    assert not any(e["relation"] == 2 for e in report)


def test_relation_suite_n5():
    report = check_relations(5)
    assert report_passed(report)
    assert sum(e["relation"] == 1 for e in report) == 60
    assert sum(e["relation"] == 2 for e in report) == 540
    assert sum(e["relation"] == 3 for e in report) == 120


def test_braid_relation_suite():
    for n in (3, 4, 5):
        assert report_passed(check_braid_relations(n))


def test_burau_of_empty_word():
    assert burau_unreduced(BraidWord(4)).is_identity()
    assert burau_reduced(BraidWord(4)).is_identity()


def test_burau_generator_block():
    ring = LaurentRing.burau()
    t = ring.var("t")
    m = burau_unreduced(BraidWord.parse("s1", 3))
    assert m.entry(0, 0) == ring.one() - t
    assert m.entry(0, 1) == t
    assert m.entry(1, 0) == ring.one()
    assert m.entry(1, 1) == 0
    assert m.entry(2, 2) == ring.one()


def test_burau_at_t_equals_one_is_permutation_matrix():
    m = burau_unreduced(BraidWord.parse("s2", 4)).specialize({"t": 1})
    assert m == PolyMatrix(4, {0: {0: 1}, 1: {2: 1}, 2: {1: 1}, 3: {3: 1}})


def test_burau_inverse_letter():
    w = BraidWord.parse("s2 s2^-1", 4)
    assert burau_unreduced(w).is_identity()


def test_burau_satisfies_braid_relations():
    for n in (3, 4):
        for i in range(1, n - 1):
            a = burau_unreduced(BraidWord.parse(f"s{i} s{i + 1} s{i}", n))
            b = burau_unreduced(BraidWord.parse(f"s{i + 1} s{i} s{i + 1}", n))
            assert a == b
            ar = burau_reduced(BraidWord.parse(f"s{i} s{i + 1} s{i}", n))
            br = burau_reduced(BraidWord.parse(f"s{i + 1} s{i} s{i + 1}", n))
            assert ar == br


def test_burau_reduced_is_multiplicative():
    rng = random.Random(36)
    for _ in range(20):
        a = BraidWord(
            4, [(rng.randint(1, 3), rng.choice([1, -1])) for _ in range(rng.randint(0, 5))]
        )
        b = BraidWord(
            4, [(rng.randint(1, 3), rng.choice([1, -1])) for _ in range(rng.randint(0, 5))]
        )
        assert burau_reduced(a * b) == burau_reduced(a) * burau_reduced(b)


def test_bigelow_braid_is_in_the_reduced_burau_kernel():
    assert burau_reduced(bigelow_beta(5)).is_identity()


def test_bigelow_braid_seen_by_the_event_representation():
    assignment = strand_assignment(5, {"t1": -1})
    m = numeric_rep_of_word(phi_pure(bigelow_beta(5)), assignment)
    assert corner_entry(m, (1, 2), (1, 2)) == -399
    assert not m.is_identity()
