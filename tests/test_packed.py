"""Packed-integer monomials against their tuple definitions."""

import hashlib
import random

import pytest

from weylmod import (QQ, ZP, FreeVec, InternalInvariant, WeylAlgebra,
                     WeylmodError, bernstein_order, buchberger,
                     pot_block_order, syz_of_list, transpose, vres_order)
from weylmod._packed import (MIN_WIDTH, Overflow, envelope, layout, product,
                             widening)

from oracles import leibniz_combination, leibniz_product, leibniz_transpose


def rand_key(rng, n, top):
    """A random (comp, a, b, e) with every exponent below top."""
    return (rng.randint(0, 3),
            tuple(rng.randrange(top) for _ in range(n)),
            tuple(rng.randrange(top) for _ in range(n)),
            rng.randrange(top))


def divides(k1, k2):
    (c1, a1, b1, e1), (c2, a2, b2, e2) = k1, k2
    return c1 == c2 and e1 <= e2 and all(s <= t for s, t in zip(a1 + b1,
                                                                a2 + b2))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("width", [7, 12])
def test_monomial_operations_match_tuples(n, width):
    rng = random.Random(100 * n + width)
    lay = layout(n, False, width)
    top = 1 << (width - 1)
    for _ in range(300):
        # small exponents too, so that divisors and equal comps are common
        k1 = rand_key(rng, n, rng.choice([3, top]))
        k2 = rand_key(rng, n, rng.choice([3, top]))
        m1, m2 = lay.enc[k1], lay.enc[k2]
        assert lay.dec[m1] == k1 and lay.dec3[lay.enc[k1[1:]]] == k1[1:]
        assert lay.degree(m1) == sum(k1[1]) + sum(k1[2]) + k1[3]
        assert lay.divides(m1, m2) == divides(k1, k2)
        hit = lay.divisor({k1[0]: [(0, m1)]}, m2)
        if divides(k1, k2):
            q = lay.dec[hit[2]]
            assert hit[:2] == (0, m1)
            assert q == (0, tuple(t - s for s, t in zip(k1[1], k2[1])),
                         tuple(t - s for s, t in zip(k1[2], k2[2])),
                         k2[3] - k1[3])
            assert lay.dec[lay.with_comp(hit[2], 2)] == (2,) + q[1:]
            assert lay.split(m2) == (k2[0], lay.enc[(0,) + k2[1:]])
        else:
            assert hit is None
        data = lay.lcm_multipliers(m1, m2)
        if k1[0] != k2[0]:
            assert data is None
            continue
        lcm = (k1[0], tuple(map(max, k1[1], k2[1])),
               tuple(map(max, k1[2], k2[2])), max(k1[3], k2[3]))
        assert lay.dec[data[0]] == lcm
        assert data[0] == lay.with_comp(data[1], 0) + m1 == data[2] + m2


def _sign(u, v):
    return (u > v) - (u < v)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("width", [MIN_WIDTH, 2 * MIN_WIDTH])
def test_packed_keys_order_monomials_as_tuple_keys(n, width):
    # each order's key on packed ints, read off the fields, ranks every
    # pair of monomials of one layout as its key on tuple keys does.
    # Exponents below 3 make ties in |a| + |b| and e common, so reverse
    # lex decides often and on every field
    rng = random.Random("keys/%d/%d" % (n, width))
    lay = layout(n, False, width)
    top = 1 << (width - 1)
    orders = [bernstein_order(n)] + [pot_block_order(n, b) for b in (1, 2, 3)]
    if n == 1:
        orders.append(vres_order(1))
    monos = []
    for _ in range(120):
        bound = rng.choice([3, 3, top])
        monos.append((rng.randint(0, 5),
                      tuple(rng.randrange(bound) for _ in range(n)),
                      tuple(rng.randrange(bound) for _ in range(n)),
                      rng.randrange(bound)))
    for order in orders:
        keys = order.packed(lay)
        packed = [(mono, keys[lay.enc[mono]]) for mono in monos]
        for m1, k1 in packed:
            for m2, k2 in packed:
                assert _sign(k1, k2) == _sign(order.key(m1), order.key(m2))
    if n == 1:
        # the de Rham window cuts at weight k0 through the floor (k0,)
        keys = vres_order(1).packed(lay)
        for mono in monos:
            _c, (a,), (b,), _e = mono
            for k0 in range(-4, 5):
                assert (keys[lay.enc[mono]] < (k0,)) == (b - a < k0)


def test_divisor_returns_the_first_divisor_in_basis_order():
    lay = layout(2, False)
    leads = [(1, (1, 0), (0, 0), 0), (0, (2, 0), (0, 0), 0),
             (0, (1, 0), (0, 0), 0), (0, (0, 0), (0, 0), 0)]
    index = {}
    for k, m in enumerate(leads):
        index.setdefault(m[0], []).append((k, lay.enc[m]))
    assert lay.divisor(index, lay.enc[(0, (3, 1), (0, 0), 0)])[0] == 1
    assert lay.divisor(index, lay.enc[(0, (1, 1), (0, 0), 0)])[0] == 2
    assert lay.divisor(index, lay.enc[(0, (0, 1), (0, 0), 0)])[0] == 3
    assert lay.divisor(index, lay.enc[(1, (0, 1), (0, 0), 0)]) is None
    assert lay.divisor(index, lay.enc[(2, (5, 5), (5, 5), 5)]) is None


@pytest.mark.parametrize("n,homog", [(1, False), (2, False), (3, False),
                                     (1, True)])
def test_packed_loop_matches_leibniz(n, homog):
    rng = random.Random(7 * n + homog)
    for _ in range(40):
        left = {rand_key(rng, n, 4)[1:]: rng.randint(-5, 5) or 1
                for _ in range(rng.randint(1, 3))}
        right = {rand_key(rng, n, 4): rng.randint(-5, 5) or 1
                 for _ in range(rng.randint(1, 4))}
        assert product(left, right, n, homog) == \
            leibniz_product(left, right, homog)


def test_overflow_is_typed_and_never_wraps():
    lay = layout(1, False)
    assert issubclass(Overflow, InternalInvariant)
    assert issubclass(Overflow, WeylmodError)
    # 63 is the largest exponent a 7-bit field stores
    assert lay.dec[lay.enc[((63,), (63,), 63)]] == (0, (63,), (63,), 63)
    with pytest.raises(Overflow):
        lay.enc[((64,), (0,), 0)]
    x40 = lay.enc[((40,), (0,), 0)]
    row = {x40: 1}
    with pytest.raises(Overflow):
        lay.mul_into({}, x40, 1, row, envelope(row))
    # the h^2 shifts of the homogenized algebra are checked term by term:
    # d^40 x^40 fits until nu = 32 reaches h^64
    hom = layout(1, True)
    x40, d40 = hom.enc[((40,), (0,), 0)], hom.enc[((0,), (40,), 0)]
    with pytest.raises(Overflow):
        hom.mul_into({}, d40, 1, {x40: 1}, x40)
    # widening reruns on wider fields until the product fits
    widths = []

    def run(lay):
        widths.append(lay.width)
        return lay.unpack(lay.mul_into({}, lay.enc[((40,), (0,), 0)], 1,
                                       {lay.enc[((40,), (1,), 0)]: 1},
                                       lay.enc[((40,), (1,), 0)]))

    assert widening(run, layout(1, False)) == {(0, (80,), (1,), 0): 1}
    assert widths == [7, 14]
    assert product({((2 ** 40,), (0,), 0): 1}, {((2 ** 40,), (1,), 0): 1},
                   1, False) == {((2 ** 41,), (1,), 0): 1}


def test_kernel_widens_in_the_middle_of_a_run():
    # the lone S-pair multiplies the tail x^59 e_1 by x^6: x^65 leaves the
    # first layout's fields after the inputs fit it, and the basis is
    # the one exact exponents give (pinned with tuple keys)
    W = WeylAlgebra(1, QQ)
    M = W.monomial
    gens = [FreeVec.from_entries([M((30,), (30,)), M((59,), (0,))]),
            FreeVec.from_entries([M((36,), (2,)), W.zero()])]
    gb = buchberger(gens, bernstein_order(1), track=True)
    assert gb.stats == {"spairs": 1, "reductions_to_zero": 0,
                        "basis_size": 3}
    got = repr((gb.elements, gb.transform, gb.lifts)).encode()
    assert hashlib.sha256(got).hexdigest() == (
        "f1d2a27f2fec885a3fb98c92736dbcbb7efa417094168e0187f276ad804eca87")
    assert any(k[1] == (65,) for g in gb.elements for k in g.terms)


def _lifted_unit():
    # the basis is {x1}, tracked as e_1 - x1^5 e_2; the lift x1^59 of
    # x1^60 times it reaches x1^64 in the row e_3 - x1^59 (e_1 - x1^5 e_2)
    W = WeylAlgebra(1, QQ)
    return [FreeVec.from_entries([W.monomial((10,), (0,)) + W.x(1)]),
            FreeVec.from_entries([W.monomial((5,), (0,))]),
            FreeVec.from_entries([W.monomial((60,), (0,))])]


def _schreyer_pair():
    # the basis is {x2^60, x1}, x1 tracked as e_1 - x2^5 e_2; their
    # Schreyer syzygy x2^60 e_x1 - x1 e_x2^60 composes to x2^65
    W = WeylAlgebra(2, QQ)
    return [FreeVec.from_entries([W.monomial((1, 6), (0, 0)) + W.x(1)]),
            FreeVec.from_entries([W.monomial((1, 1), (0, 0))]),
            FreeVec.from_entries([W.monomial((0, 60), (0, 0))])]


# sha256 of repr(syz_of_list(gens)), recorded with the Fraction-row
# composition this kernel replaced
WIDE_SYZYGIES = [
    (_lifted_unit,
     "06100996c83f32faabc6176f0cf2834fb8b4d696002e210809cd4215caa943af"),
    (_schreyer_pair,
     "4686a7e0bf32643f50cbbff57ff7e25b12fcf618a9bab114e358bebe58c28dc7"),
]


@pytest.mark.parametrize("make,digest", WIDE_SYZYGIES,
                         ids=["lifts", "schreyer"])
def test_syzygies_widen_past_the_basis_layout(make, digest):
    # Buchberger fits the narrowest fields; composing its transform with
    # the lifts or the Schreyer syzygies does not, so the composition
    # reruns wider instead of raising Overflow
    gens = make()
    gb = buchberger(gens, bernstein_order(gens[0].n), track=True)
    assert gb._basis.layout.width == MIN_WIDTH
    syz = syz_of_list(gens)
    assert hashlib.sha256(repr(syz).encode()).hexdigest() == digest
    assert max(v for s in syz for _c, a, b, _e in s.terms
               for v in a + b) >= 64
    for s in syz:
        assert not leibniz_combination(s, gens)


def test_transpose_widens_in_one_pass():
    W = WeylAlgebra(2, ZP)
    M = W.monomial
    v = FreeVec.from_entries([M((70, 1), (2, 0), 1, 3)
                              + M((1, 0), (0, 65), 0, -2), W.zero(),
                              M((0, 3), (64, 1), 2, 5)])
    got = transpose(v)
    assert got.terms == leibniz_transpose(v.terms)
    assert hashlib.sha256(repr(got).encode()).hexdigest() == (
        "98d31d23398807b23f42896612caa7dc5e206da8074adf0b51001bdb4f45b456")
