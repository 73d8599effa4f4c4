"""Normal ordering, filtration, symbols and the standard automorphisms."""

import random
from fractions import Fraction

import pytest

from weylmod import (H1, QQ, QZ, ZP, FreeVec, MixedAmbient, RankMismatch,
                     RatFunc,
                     WeylAlgebra, XPoly, apply_to_polynomial,
                     bernstein_degree, convert_ring, fourier,
                     fourier_inverse, principal_symbol,
                     reduce_element_mod_z, to_str, transpose)

from helpers import rand_element
from oracles import leibniz_product

W1 = WeylAlgebra(1, QQ)
W2 = WeylAlgebra(2, QQ)


def test_commutator():
    x, d = W1.x(1), W1.d(1)
    assert d * x - x * d == W1.one()
    x1, x2, d1, d2 = W2.x(1), W2.x(2), W2.d(1), W2.d(2)
    assert d1 * x1 - x1 * d1 == W2.one()
    assert d1 * x2 == x2 * d1
    assert d2 * x1 == x1 * d2
    assert x1 * x2 == x2 * x1
    assert d1 * d2 == d2 * d1


def test_normal_order_example():
    x, d = W1.x(1), W1.d(1)
    # d^2 x = x d^2 + 2 d
    assert d * d * x == x * d * d + 2 * d
    assert to_str(d * x) == "x1*d1 + 1"
    assert to_str(W1.zero()) == "0"


def test_associativity_random():
    # H1 is the only ring whose products run the homogenized branch
    rng = random.Random(11)
    for n, ring in ((2, QQ), (2, QZ), (2, ZP), (1, H1)):
        W = WeylAlgebra(n, ring)
        for _ in range(25):
            u, v, w = (rand_element(rng, W, deg=3, terms=3)
                       for _ in range(3))
            assert (u * v) * w == u * (v * w)
            # the rank-2 product acts entrywise
            assert FreeVec.from_entries([v, w]).mul_left(u) == \
                FreeVec.from_entries([u * v, u * w])


def test_faithful_action():
    rng = random.Random(13)
    for _ in range(25):
        u = rand_element(rng, W2, deg=3, terms=3)
        v = rand_element(rng, W2, deg=3, terms=3)
        f = XPoly.monomial(2, QQ, (rng.randint(0, 2), rng.randint(0, 2)),
                           coeff=Fraction(rng.randint(1, 5)))
        g = XPoly.monomial(2, QQ, (rng.randint(0, 3), 0))
        h = f + g
        assert apply_to_polynomial(u * v, h) == \
            apply_to_polynomial(u, apply_to_polynomial(v, h))


def test_action_examples():
    x, d = W1.x(1), W1.d(1)
    f = XPoly.monomial(1, QQ, (3,))  # x^3
    assert apply_to_polynomial(d, f) == XPoly.monomial(1, QQ, (2,),
                                                       coeff=Fraction(3))
    assert apply_to_polynomial(x * d, f) == XPoly.monomial(
        1, QQ, (3,), coeff=Fraction(3))


def test_degree_multiplicative():
    rng = random.Random(17)
    for _ in range(30):
        u = rand_element(rng, W2, deg=4, terms=3)
        v = rand_element(rng, W2, deg=4, terms=3)
        assert bernstein_degree(u * v) == \
            bernstein_degree(u) + bernstein_degree(v)


def test_principal_symbol_multiplicative():
    rng = random.Random(19)
    for _ in range(20):
        u = rand_element(rng, W2, deg=3, terms=3)
        v = rand_element(rng, W2, deg=3, terms=3)
        assert principal_symbol(u * v) == principal_symbol(u) * \
            principal_symbol(v)


def test_fourier_automorphism():
    x, d = W1.x(1), W1.d(1)
    assert fourier(x) == d
    assert fourier(d) == -x
    rng = random.Random(23)
    for _ in range(20):
        u = rand_element(rng, W1, deg=4, terms=3)
        v = rand_element(rng, W1, deg=4, terms=3)
        assert fourier(u * v) == fourier(u) * fourier(v)
        assert fourier_inverse(fourier(u)) == u
        assert fourier(fourier_inverse(v)) == v


def test_transpose_antiautomorphism():
    x, d = W1.x(1), W1.d(1)
    assert transpose(x) == x
    assert transpose(d) == -d
    rng = random.Random(29)
    for _ in range(20):
        u = rand_element(rng, W1, deg=4, terms=3)
        v = rand_element(rng, W1, deg=4, terms=3)
        assert transpose(u * v) == transpose(v) * transpose(u)
        assert transpose(transpose(u)) == u


def test_automorphisms_act_entrywise_on_free_vectors():
    rng = random.Random(37)
    for W in (W2, WeylAlgebra(2, QZ), WeylAlgebra(1, H1)):
        for _ in range(10):
            entries = [rand_element(rng, W, deg=3, terms=3) for _ in range(3)]
            v = FreeVec.from_entries(entries, rank=4)
            for f in (fourier, fourier_inverse, transpose):
                assert f(v) == FreeVec.from_entries(
                    [f(w) for w in entries], rank=4)


@pytest.mark.parametrize("make", [
    lambda: W2.x(1) * W2.d(2) - 3,
    lambda: FreeVec.from_entries([W2.x(1), W2.d(2) - 3]),
    lambda: XPoly(2, QQ, [((1, 0), Fraction(2)), ((0, 2), Fraction(-1))]),
    lambda: principal_symbol(W2.x(1) * W2.d(2) - 3),
], ids=["WeylElement", "FreeVec", "XPoly", "SymbolPolynomial"])
def test_sparse_term_values(make):
    u, v = make(), make()
    assert u is not v and u == v and hash(u) == hash(v)
    for name in ("terms", "n"):
        with pytest.raises(AttributeError,
                           match="^%s is immutable$" % type(u).__name__):
            setattr(u, name, None)
    assert u.scale(0).is_zero() and not u.scale(0) and u
    assert u - v == u.scale(0) and -(-u) == u
    assert u + v == u.scale(2) != u


def test_weyl_element_promotes_scalars():
    x = W1.x(1)
    assert x - x + 2 == 2 and 2 == (x - x) + 2
    assert x + Fraction(1, 2) - Fraction(1, 2) == x
    assert 1 - x == -(x - 1) and 1 + x == x + 1


def test_free_vectors_of_different_algebras_do_not_add():
    u = FreeVec.from_entries([W1.x(1)])
    v = FreeVec.from_entries([WeylAlgebra(2, ZP).z()])
    with pytest.raises(MixedAmbient):
        u + v
    with pytest.raises(MixedAmbient):
        u - v
    with pytest.raises(MixedAmbient):
        u.mul_left(WeylAlgebra(2, ZP).z())
    with pytest.raises(RankMismatch, match="^rank 1 vs 2$"):
        u + FreeVec.from_entries([W1.x(1), W1.d(1)])


@pytest.mark.parametrize("ring", [QQ, ZP, H1])
def test_rational_function_is_no_scalar_outside_qz(ring):
    x = WeylAlgebra(1, ring).x(1)
    with pytest.raises(MixedAmbient):
        x * RatFunc.z()
    with pytest.raises(MixedAmbient):
        RatFunc.z() * x
    x = WeylAlgebra(1, QZ).x(1)
    assert x * RatFunc.z() == RatFunc.z() * x == x.scale(RatFunc.z())


def test_mixed_ambient_rejected():
    with pytest.raises(MixedAmbient):
        W1.x(1) + W2.x(1)
    with pytest.raises(MixedAmbient):
        W1.x(1) * WeylAlgebra(1, QZ).x(1)


def test_convert_ring_round_trip():
    A = WeylAlgebra(1, ZP)
    u = A.z() * A.x(1) + A.d(1)
    v = convert_ring(u, QZ)
    assert convert_ring(v, ZP) == u


def test_reduce_mod_z():
    A = WeylAlgebra(1, ZP)
    u = A.z() * A.x(1) + A.d(1) * A.d(1)
    r = reduce_element_mod_z(u)
    W = WeylAlgebra(1, QQ)
    assert r == W.d(1) * W.d(1)


def test_homogenized_relation():
    H = WeylAlgebra(1, H1)
    x, d, h = H.x(1), H.d(1), H.monomial((0,), (0,), e=1)
    assert d * x - x * d == h * h


def test_parse_print_round_trip():
    rng = random.Random(31)
    from weylmod import parse
    for _ in range(25):
        u = rand_element(rng, W2, deg=3, terms=4)
        src = ("ring W(2) over QQ;\nmodule M = coker [[%s]];\ncheck M gb"
               % to_str(u))
        sess = parse(src)
        assert sess.modules["M"][0][0] == u


PRODUCT_RINGS = [(1, QQ), (2, QQ), (3, QQ), (1, ZP), (2, ZP), (3, ZP),
                 (1, QZ), (2, QZ), (1, H1)]


@pytest.mark.parametrize("n,ring", PRODUCT_RINGS,
                         ids=["%s%d" % (r, n) for n, r in PRODUCT_RINGS])
def test_product_matches_leibniz(n, ring):
    rng = random.Random(1000 * n + len(ring))
    W = WeylAlgebra(n, ring)
    for _ in range(12):
        u = rand_element(rng, W, deg=3, terms=3)
        v = rand_element(rng, W, deg=3, terms=3)
        assert (u * v).terms == leibniz_product(u.terms, v.terms, ring == H1)
        comp = rng.randint(1, 3)
        vec = FreeVec.from_entries([W.zero()] * comp + [v])
        want = leibniz_product(u.terms, vec.terms, ring == H1)
        assert vec.mul_left(u).terms == want


# exponents at and around every power of two a fixed-width field could
# stop at; the products must come out exact, never wrapped.  The left
# factors carry small d-exponents, so every expansion (and the oracle's
# walk of one derivation at a time) stays short.
@pytest.mark.parametrize("bits", [6, 7, 8, 15, 16, 31, 32, 36, 63, 64, 65])
def test_products_of_huge_exponents_are_exact(bits):
    big = 2 ** bits - 1
    Z1 = WeylAlgebra(1, ZP)
    cases = [(W1.monomial((big,), (1,)), W1.monomial((big,), (0,))),
             (W1.d(1), W1.monomial((big + 1,), (big,)) + W1.x(1)),
             (W2.monomial((big, 1), (2, 1)), W2.monomial((1, 3), (0, big))),
             (W2.monomial((1, big), (1, 2)), W2.monomial((big, 2), (big, 0))),
             (Z1.monomial((big,), (1,), big),
              Z1.monomial((1,), (0,), big + 2))]
    for u, v in cases:
        want = leibniz_product(u.terms, v.terms)
        assert (u * v).terms == want
        vec = FreeVec.from_entries([WeylAlgebra(u.n, u.ring).zero(), v])
        assert vec.mul_left(u).terms == {(1,) + k: c
                                         for k, c in want.items()}
    x, d = W1.x(1), W1.d(1)
    u = W1.monomial((big,), (1,))
    assert transpose(u * x) == transpose(x) * transpose(u)
    assert fourier_inverse(fourier(u * d)) == u * d
