import random

import pytest

from braidrep.braids import (
    BraidParseError,
    BraidWord,
    COMMUTATOR_ABA_B,
    COMMUTATOR_A_B_AB,
    bigelow_beta,
    commutator,
)
from braidrep.gn3 import GnWord
from braidrep.permutations import Permutation
from words import free_reduce


def random_word(n, length, rng):
    return BraidWord(
        n,
        [(rng.randint(1, n - 1), rng.choice([1, -1])) for _ in range(length)],
    )


def test_parse_letters():
    assert BraidWord.parse("s1 s2^-1", 3).letters == ((1, 1), (2, -1))


def test_parse_expands_powers():
    assert BraidWord.parse("s4^3", 5).letters == ((4, 1), (4, 1), (4, 1))
    assert BraidWord.parse("s1^-2", 3).letters == ((1, -1), (1, -1))


def test_parse_integer_form():
    assert BraidWord.parse("1 -2 3", 4).letters == ((1, 1), (2, -1), (3, 1))


def test_parse_rejects_out_of_range_generator():
    with pytest.raises(BraidParseError):
        BraidWord.parse("s5", 5)
    with pytest.raises(BraidParseError):
        BraidWord.parse("junk", 5)


def test_inverse_reverses_and_flips():
    w = BraidWord(3, [(1, 1), (2, -1)])
    assert w.inverse().letters == ((2, 1), (1, -1))


def test_free_reduce_cancels_adjacent_pair():
    assert free_reduce(BraidWord(3, [(1, 1), (1, -1)])).letters == ()


def test_free_reduce_of_word_times_inverse():
    rng = random.Random(11)
    for _ in range(100):
        w = random_word(5, rng.randint(0, 12), rng)
        assert free_reduce(w * w.inverse()).letters == ()


def test_permutation_of_single_generator():
    assert BraidWord.parse("s1", 3).permutation() == Permutation.transposition(3, 1)


def test_permutation_of_empty_word():
    assert BraidWord(4).permutation().is_identity()


def test_permutation_is_a_homomorphism():
    rng = random.Random(12)
    for _ in range(60):
        a = random_word(5, rng.randint(0, 8), rng)
        b = random_word(5, rng.randint(0, 8), rng)
        assert (a * b).permutation() == a.permutation() * b.permutation()


def test_permutation_satisfies_braid_relations():
    for n in (3, 4, 5):
        for i in range(1, n - 1):
            lhs = BraidWord.parse(f"s{i} s{i + 1} s{i}", n).permutation()
            rhs = BraidWord.parse(f"s{i + 1} s{i} s{i + 1}", n).permutation()
            assert lhs == rhs
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                lhs = BraidWord.parse(f"s{i} s{j}", n).permutation()
                rhs = BraidWord.parse(f"s{j} s{i}", n).permutation()
                assert lhs == rhs


def test_commutator_of_word_with_itself_reduces_away():
    w = BraidWord.parse("s1 s2", 3)
    assert free_reduce(commutator(w, w)).letters == ()
    assert free_reduce(commutator(w, w, COMMUTATOR_A_B_AB)).letters == ()


def test_commutator_of_distant_generators():
    a = BraidWord.parse("s1", 5)
    b = BraidWord.parse("s3", 5)
    c = commutator(a, b)
    assert len(free_reduce(c)) == 4


def test_commutator_inverse_symmetry():
    rng = random.Random(13)
    for _ in range(50):
        a = random_word(5, rng.randint(1, 6), rng)
        b = random_word(5, rng.randint(1, 6), rng)
        lhs = free_reduce(commutator(a, b))
        rhs = free_reduce(commutator(b, a).inverse())
        assert lhs == rhs


def test_mismatched_strand_counts():
    with pytest.raises(ValueError):
        BraidWord(3) * BraidWord(4)
    with pytest.raises(ValueError):
        commutator(BraidWord(3), BraidWord(4))


# The built-in kernel braid: a commutator of two conjugates whose letter
# count is 2*(21 + 40) = 122 (conjugating words of 10 and 16 letters around
# cores of 1 and 8 letters).
def test_bigelow_beta_letter_count():
    assert len(bigelow_beta(5)) == 122
    assert len(bigelow_beta(5, COMMUTATOR_A_B_AB)) == 122


def test_bigelow_beta_is_pure():
    assert bigelow_beta(5).permutation().is_identity()
    assert bigelow_beta(6).permutation().is_identity()


def test_bigelow_beta_on_six_strands_keeps_letters():
    assert bigelow_beta(6).letters == bigelow_beta(5).letters
    assert bigelow_beta(6).n == 6


def test_bigelow_beta_rejects_other_strand_counts():
    with pytest.raises(ValueError):
        bigelow_beta(4)


# Indices and exponents are read with operator.index: a float or a string
# is refused, not truncated or parsed, and ints and bools pass as ints.
@pytest.mark.parametrize("make", [
    lambda v: BraidWord(3, [(1, v)]),
    lambda v: BraidWord(3, [(v, 1)]),
    lambda v: GnWord(3, [((v, 2, 3), 1)]),
    lambda v: Permutation([v, 2, 3]),
], ids=["Word-exponent", "BraidWord-index", "GnWord-index", "Permutation"])
def test_indices_must_be_integers(make):
    assert repr(make(True)) == repr(make(1))
    for value in (1.0, 1.9, "1"):
        with pytest.raises(TypeError):
            make(value)
