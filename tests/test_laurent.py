import random
from fractions import Fraction

import pytest

import oracle
from braidrep import laurent
from braidrep.cli import main
from braidrep.laurent import EXPONENT_LIMIT, LaurentRing

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
    assert p == R5.monomial(-1, {"t1": 1}) + R5.monomial(-2, {})
    assert p != R5.monomial(-2, {}) and p != -R5.var("t1")


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
    # one ring object per variable set: polynomials compare rings by identity
    assert LaurentRing.for_strands(5) is R5
    assert LaurentRing.burau() is LaurentRing.burau()
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


def random_reference(ring, rng, edge, max_terms=5):
    """A tuple-keyed polynomial with one term negative in every slot and
    further random terms; edge is the largest |exponent|, and about half of
    the exponents lie within 3 of it."""
    def exponent():
        e = rng.randint(0, 3) if rng.random() < 0.5 else edge - rng.randint(0, 3)
        return rng.choice((e, -e))

    vecs = [tuple(-rng.randint(1, edge) for _ in ring.names)]
    vecs += [tuple(exponent() for _ in ring.names) for _ in range(rng.randint(0, max_terms))]
    ref = {}
    for vec in vecs:
        ref = oracle.laurent_add(ref, {vec: rng.choice((-3, -1, 1, 2, 7))})
    return ref


def packed(ring, ref):
    p = ring.zero()
    for vec, coeff in ref.items():
        p = p + ring.monomial(coeff, dict(zip(ring.names, vec)))
    return p


@pytest.mark.parametrize(
    "ring",
    [LaurentRing.for_strands(n) for n in range(3, 7)] + [LaurentRing.burau()],
    ids=["n3", "n4", "n5", "n6", "burau"],
)
def test_packed_arithmetic_matches_tuple_reference(ring):
    # sums reach |e| = EXPONENT_LIMIT - 1, products of factors below half of
    # it reach EXPONENT_LIMIT - 2; b repeats some terms of a negated, and in
    # (a + b)(a - b) the cross terms cancel, so terms collide in every slot
    rng = random.Random(4242 + len(ring.names))
    half = EXPONENT_LIMIT // 2 - 1
    for edge in (3, half, EXPONENT_LIMIT - 1):
        for _ in range(30):
            a, b = (random_reference(ring, rng, edge) for _ in range(2))
            b = oracle.laurent_add(b, {e: -c for e, c in a.items() if rng.random() < 0.5})
            minus_b = {e: -c for e, c in b.items()}
            pa, pb = packed(ring, a), packed(ring, b)
            results = [(pa, a), (pa + pb, oracle.laurent_add(a, b)),
                       (pa - pb, oracle.laurent_add(a, minus_b))]
            if edge <= half:
                results += [(pa * pb, oracle.laurent_mul(a, b)),
                            ((pa + pb) * (pa - pb), oracle.laurent_mul(
                                oracle.laurent_add(a, b), oracle.laurent_add(a, minus_b)))]
            for p, ref in results:
                assert str(p) == oracle.laurent_str(ring.names, ref)
                assert p == packed(ring, ref)
            if edge == 3:
                values = {name: rng.choice((-2, -1, Fraction(1, 2), Fraction(-3, 2), 3))
                          for name in ring.names}
                for p, ref in results:
                    assert p.eval(values) == oracle.laurent_eval(ring.names, ref, values)


@pytest.mark.parametrize("ring", [R5, LaurentRing.burau()], ids=["n5", "burau"])
def test_exponents_outside_the_slot_are_refused(ring):
    last = ring.names[-1]  # least significant slot: a carry would reach its neighbour
    for e in (EXPONENT_LIMIT - 1, -(EXPONENT_LIMIT - 1)):
        assert str(ring.var(last, e)) == f"{last}^{e}"
    for e in (EXPONENT_LIMIT, -EXPONENT_LIMIT, 10 ** 30):
        with pytest.raises(OverflowError):
            ring.monomial(1, {last: e})
    top = ring.var(last, EXPONENT_LIMIT - 2)
    assert str(top * ring.var(last)) == f"{last}^{EXPONENT_LIMIT - 1}"
    for factor in (ring.var(last, 2), ring.var(last, -2), ring.one() + ring.var(last, 2)):
        with pytest.raises(OverflowError):
            top * factor


def test_exponents_past_the_slot_exit_2_with_one_line(capsys, monkeypatch):
    # each folded letter raises an entry's |exponent| by at most 1, so a long
    # enough symbolic product reaches the slot limit
    for command in ("rep", "burau"):
        argv = [command, "--n", "3", "s1^8"]
        monkeypatch.undo()
        assert main(argv) == 0
        monkeypatch.setattr(laurent, "EXPONENT_LIMIT", 4)
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "may reach 4 >= 4" in err and len(err.splitlines()) == 1
