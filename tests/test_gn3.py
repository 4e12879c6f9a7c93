import random

import pytest

from braidrep.braids import BraidWord
from braidrep.gn3 import (
    GnWord,
    NotPureError,
    SemidirectElement,
    phi_generator,
    phi_pure,
    phi_word,
)
from braidrep.permutations import Permutation
from words import gn_word


def random_perm(n, rng):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(images)


def random_gnword(n, length, rng):
    letters = []
    for _ in range(length):
        triple = tuple(rng.sample(range(1, n + 1), 3))
        letters.append((triple, rng.choice([1, -1])))
    return GnWord(n, letters)


def random_element(n, rng):
    return SemidirectElement(
        random_perm(n, rng), random_gnword(n, rng.randint(0, 5), rng)
    )


def test_letter_validation():
    with pytest.raises(ValueError, match="distinct"):
        GnWord(4, [((1, 1, 2), 1)])
    with pytest.raises(ValueError, match="out of range"):
        GnWord(4, [((1, 2, 5), 1)])


def test_braid_and_gn_words_do_not_mix():
    # equal n and equal (empty) letters: only the word kind differs
    braid, word = BraidWord(4), GnWord(4)
    assert braid != word and word != braid
    with pytest.raises(TypeError):
        braid * word
    with pytest.raises(TypeError):
        word * braid


def test_free_reduce_explicit_inverse():
    w = GnWord(4, [((1, 2, 3), 1), ((1, 2, 3), -1)])
    assert w.free_reduce().letters == ()


def test_free_reduce_reversed_triple():
    w = GnWord(4, [((1, 2, 3), 1), ((3, 2, 1), 1)])
    assert w.free_reduce().letters == ()


def test_free_reduce_leaves_non_cancelling_pairs():
    w = GnWord(4, [((1, 2, 3), 1), ((1, 2, 4), 1)])
    assert w.free_reduce() == w
    mixed = GnWord(4, [((1, 2, 3), 1), ((3, 2, 1), -1)])
    assert mixed.free_reduce() == mixed


def test_free_reduce_cascades():
    w = GnWord(
        4,
        [((1, 2, 4), 1), ((1, 2, 3), 1), ((3, 2, 1), 1), ((4, 2, 1), 1)],
    )
    assert w.free_reduce().letters == ()


def test_permuted_relabels_indices():
    tau = Permutation.transposition(4, 1)
    w = GnWord(4, [((1, 3, 4), 1)])
    assert w.permuted(tau) == GnWord(4, [((2, 3, 4), 1)])


def test_permuted_by_identity():
    rng = random.Random(21)
    for _ in range(20):
        w = random_gnword(5, rng.randint(0, 6), rng)
        assert w.permuted(Permutation.identity(5)) == w


def test_permuted_composes_left_to_right():
    rng = random.Random(22)
    for _ in range(60):
        w = random_gnword(5, rng.randint(0, 6), rng)
        t1 = random_perm(5, rng)
        t2 = random_perm(5, rng)
        assert w.permuted(t1).permuted(t2) == w.permuted(t1 * t2)


def test_parse_and_format():
    w = GnWord(4, [((1, 2, 3), 1), ((4, 2, 1), -1)])
    assert str(w) == "a(1,2,3) a(4,2,1)^-1"
    assert gn_word(str(w), 4) == w
    with pytest.raises(ValueError):
        gn_word("b(1,2,3)", 4)


def test_json_round_trip():
    w = GnWord(5, [((5, 2, 1), 1), ((3, 4, 5), -1)])
    assert w.to_json() == [[5, 2, 1, 1], [3, 4, 5, -1]]
    assert GnWord(5, [((i, j, k), e) for i, j, k, e in w.to_json()]) == w


def test_trivial_permutations_multiply_by_concatenation():
    w = GnWord(4, [((1, 2, 3), 1)])
    v = GnWord(4, [((1, 2, 4), 1)])
    a = SemidirectElement(Permutation.identity(4), w)
    b = SemidirectElement(Permutation.identity(4), v)
    assert (a * b).word == w * v


def test_inverse_of_plain_word_element():
    a = SemidirectElement(
        Permutation.identity(4), GnWord(4, [((1, 2, 3), 1)])
    )
    assert a.inverse().word == GnWord(4, [((1, 2, 3), -1)])


def test_element_times_inverse_is_identity():
    rng = random.Random(23)
    for _ in range(100):
        a = random_element(5, rng)
        assert a * a.inverse() == SemidirectElement.identity(5)
        assert a.inverse() * a == SemidirectElement.identity(5)


def test_double_inverse():
    rng = random.Random(24)
    for _ in range(50):
        a = random_element(5, rng)
        b = a.inverse().inverse()
        assert b.perm == a.perm
        assert b.word == a.word.free_reduce()


def test_multiplication_is_associative():
    rng = random.Random(25)
    for _ in range(300):
        a, b, c = (random_element(5, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_generator_image_at_left_edge():
    element = phi_generator(5, 1)
    assert element.perm == Permutation.transposition(5, 1)
    assert element.word == gn_word("a(5,2,1) a(4,2,1) a(3,2,1)", 5)


def test_generator_image_at_right_edge():
    element = phi_generator(4, 3)
    assert element.perm == Permutation.transposition(4, 3)
    assert element.word == gn_word("a(2,4,3) a(1,4,3)", 4)


def test_generator_image_in_the_middle():
    element = phi_generator(4, 2)
    assert element.perm == Permutation.transposition(4, 2)
    assert element.word == gn_word("a(1,3,2) a(4,3,2)", 4)


def test_generator_image_word_length():
    for n in range(3, 8):
        for i in range(1, n):
            assert len(phi_generator(n, i).word) == n - 2


def test_generator_inverse_image():
    g = phi_generator(5, 2)
    assert phi_generator(5, 2, -1) == g.inverse()
    assert g * phi_generator(5, 2, -1) == SemidirectElement.identity(5)


def test_generator_index_bounds():
    with pytest.raises(ValueError):
        phi_generator(5, 5)
    with pytest.raises(ValueError):
        phi_generator(5, 0)


def test_phi_of_empty_word():
    assert phi_word(BraidWord(4)) == SemidirectElement.identity(4)


def test_phi_of_cancelling_word():
    assert phi_word(BraidWord.parse("s1 s1^-1", 4)) == SemidirectElement.identity(4)


def test_phi_permutation_part_matches_braid_permutation():
    rng = random.Random(26)
    for _ in range(60):
        w = BraidWord(
            5, [(rng.randint(1, 4), rng.choice([1, -1])) for _ in range(rng.randint(0, 10))]
        )
        assert phi_word(w).perm == w.permutation()


def test_phi_is_a_homomorphism_up_to_free_reduction():
    rng = random.Random(27)
    for _ in range(60):
        a = BraidWord(
            4, [(rng.randint(1, 3), rng.choice([1, -1])) for _ in range(rng.randint(0, 6))]
        )
        b = BraidWord(
            4, [(rng.randint(1, 3), rng.choice([1, -1])) for _ in range(rng.randint(0, 6))]
        )
        assert phi_word(a * b) == phi_word(a) * phi_word(b)


def test_phi_pure_on_generator_square():
    # folding the product: the first letter a(3,2,1) is relabelled by the
    # second swap before the second letter is appended
    word = phi_pure(BraidWord.parse("s1^2", 3))
    assert len(word) == 2
    assert word == gn_word("a(3,1,2) a(3,2,1)", 3)


def test_phi_pure_on_empty_braid():
    assert phi_pure(BraidWord(3)) == GnWord(3)


def test_phi_pure_rejects_non_pure_braids():
    with pytest.raises(NotPureError):
        phi_pure(BraidWord.parse("s1", 3))
