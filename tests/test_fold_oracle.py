"""Differential test: the column-operation fold against the letter-matrix
product of tests/oracle.py, on seeded random words with inverse letters,
in both product orders and for every scalar type the fold uses."""

import random
from fractions import Fraction

import pytest

import oracle
from braidrep.braids import BraidWord
from braidrep.gn3 import GnWord
from braidrep.matrixrep import (
    PRODUCT_REVERSED_ORDER,
    PRODUCT_WORD_ORDER,
    burau_unreduced,
    numeric_rep_of_word,
    rep_of_word,
    strand_assignment,
)

ORDERS = (PRODUCT_WORD_ORDER, PRODUCT_REVERSED_ORDER)
RATIONALS = (Fraction(2, 3), Fraction(-3, 2), Fraction(5, 7), -2, 3)


def random_words(n, count, seed):
    """count random words with lengths evenly spaced from 0 to 30 letters."""
    rng = random.Random(f"fold:{n}:{seed}")
    return [
        GnWord(n, [(tuple(rng.sample(range(1, n + 1), 3)), rng.choice((1, -1)))
                   for _ in range(30 * m // (count - 1))])
        for m in range(count)
    ]


def random_values(n, rng, rational):
    """Every variable at +-1; with rational, two or three at non-units."""
    values = {name: rng.choice((1, -1)) for name in strand_assignment(n)}
    if rational:
        for name in rng.sample(sorted(values), rng.randint(2, 3)):
            values[name] = rng.choice(RATIONALS)
    return strand_assignment(n, values)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", (4, 5))
def test_symbolic_fold_matches_letter_products(n, order):
    for word in random_words(n, 6, "symbolic"):
        assert rep_of_word(word, order).rows == oracle.word_product(word, order)


@pytest.mark.parametrize("rational", (False, True), ids=("int", "fraction"))
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", (4, 5))
def test_numeric_fold_matches_letter_products(n, order, rational):
    rng = random.Random(f"values:{n}:{order}:{rational}")
    for word in random_words(n, 8, "numeric"):
        assignment = random_values(n, rng, rational)
        matrix = numeric_rep_of_word(word, assignment, order)
        expected = oracle.word_product(word, order, assignment)
        assert matrix.rows == expected
        assert matrix.n == n
        kinds = {type(v) for row in matrix.rows.values() for v in row.values()}
        # +-1 values fold in plain int; others in exact Fractions, never floats
        assert kinds <= ({int, Fraction} if rational else {int})


def test_burau_fold_matches_block_products():
    rng = random.Random("burau")
    for n in (2, 3, 5):
        for _ in range(10):
            w = BraidWord(n, [(rng.randint(1, n - 1), rng.choice((1, -1)))
                              for _ in range(rng.randint(0, 30))])
            assert burau_unreduced(w).rows == oracle.burau_product(w)
