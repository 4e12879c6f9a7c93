import random
from fractions import Fraction

import pytest

from braidrep.laurent import LaurentRing

R5 = LaurentRing.for_strands(5)


def random_poly(ring, rng, max_terms=4, max_exp=3, max_coeff=9):
    p = ring.zero()
    for _ in range(rng.randint(0, max_terms)):
        exponents = {name: rng.randint(-max_exp, max_exp) for name in ring.names}
        p = p + ring.monomial(rng.randint(-max_coeff, max_coeff), exponents)
    return p


def test_additive_inverse():
    t1 = R5.var("t1")
    assert not t1 + (-t1)


def test_addition_cancels_across_terms():
    one = R5.one()
    t1 = R5.var("t1")
    assert (t1 + one) + (one - t1) == R5.constant(2)


def test_like_terms_merge():
    m = R5.var("t1") * R5.var("s2", -1)
    assert m + m == 2 * m
    assert str(m + m) == "2*t1*s2^-1"


def test_unit_inverse_multiplication():
    t1 = R5.var("t1")
    assert t1 * R5.var("t1", -1) == 1


def test_product_expansion_by_hand():
    # (1 - t1)(1 - t1^-1) expands to 2 - t1 - t1^-1
    one = R5.one()
    t1 = R5.var("t1")
    lhs = (one - t1) * (one - R5.var("t1", -1))
    expected = R5.constant(2) - t1 - R5.var("t1", -1)
    assert lhs == expected


def test_zero_absorbs():
    rng = random.Random(7)
    for _ in range(20):
        p = random_poly(R5, rng)
        assert not R5.zero() * p


def test_eval_single_variable():
    assign = {name: 1 for name in R5.names}
    assign["t1"] = -1
    assert R5.var("t1").eval(assign) == -1


def test_eval_direct_substitution():
    assign = {name: 1 for name in R5.names}
    assign["t1"] = -1
    assert (R5.one() - R5.var("t1")).eval(assign) == 2


def test_eval_negative_exponent():
    assign = {name: 1 for name in R5.names}
    assign["t3"] = 2
    assert R5.var("t3", -1).eval(assign) == Fraction(1, 2)


def test_eval_rejects_zero_assignment():
    assign = {name: 1 for name in R5.names}
    assign["s4"] = 0
    with pytest.raises(ValueError, match="zero"):
        R5.var("t1").eval(assign)


def test_eval_rejects_missing_assignment():
    assign = {name: 1 for name in R5.names}
    del assign["s5"]
    with pytest.raises(ValueError, match="missing"):
        R5.var("t1").eval(assign)


def test_canonical_form_is_deterministic():
    # same polynomial assembled in two different orders
    a = R5.var("t1") + R5.constant(3) + R5.var("s5", -2)
    b = R5.var("s5", -2) + R5.var("t1") + R5.constant(3)
    assert str(a) == str(b)
    assert str(a) == "t1 + 3 + s5^-2"


def test_negative_coefficient_folding():
    p = R5.constant(-2) - R5.var("t1")
    assert str(p) == "-t1 + -2"
    assert p.terms == {(1,) + (0,) * 9: -1, (0,) * 10: -2}


def test_ring_axioms_randomised():
    rng = random.Random(99)
    for _ in range(60):
        a = random_poly(R5, rng)
        b = random_poly(R5, rng)
        c = random_poly(R5, rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + R5.zero() == a
        assert a * R5.one() == a


def test_eval_is_a_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(40):
        a = random_poly(R5, rng)
        b = random_poly(R5, rng)
        assign = {
            name: Fraction(rng.randint(1, 6), rng.randint(1, 6)) * rng.choice([1, -1])
            for name in R5.names
        }
        assert (a + b).eval(assign) == a.eval(assign) + b.eval(assign)
        assert (a * b).eval(assign) == a.eval(assign) * b.eval(assign)


def test_ring_mismatch_is_an_error():
    other = LaurentRing.for_strands(4)
    with pytest.raises(ValueError, match="different rings"):
        R5.var("t1") + other.var("t1")
    with pytest.raises(ValueError, match="different rings"):
        R5.var("t1") * other.var("t1")


def test_burau_ring_is_single_variable():
    ring = LaurentRing.burau()
    t = ring.var("t")
    u = ring.var("t", -1)
    assert ring.names == ("t",)
    assert str(u) == "t^-1"
    assert str(u + 1) == "1 + t^-1"
    assert t * u == 1


def test_arithmetic_never_stores_a_zero_coefficient():
    # LaurentPoly stores terms as given, so every operation must drop the
    # zeros itself, also in results that cancel completely; in one variable
    # with small exponents, terms of products collide and cancel often
    rng = random.Random(2025)
    for ring in (R5, LaurentRing.burau()):
        for _ in range(200):
            a = random_poly(ring, rng, max_exp=1, max_coeff=2)
            b = random_poly(ring, rng, max_exp=1, max_coeff=2)
            for p in (a + b, a - b, a * b, -a, a - a, a * (b - b)):
                assert 0 not in p.terms.values()
                if not p.terms:
                    assert p == ring.zero()
