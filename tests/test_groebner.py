"""Left Groebner bases: soundness against brute force, syzygies, orders."""

import hashlib
import itertools
import random
import types
from fractions import Fraction

import pytest

from weylmod import (H1, QQ, QZ, ZP, FreeVec, GBasis, InternalInvariant,
                     MixedAmbient, QPoly, RankMismatch, RatFunc,
                     UnsupportedAmbient,
                     WeylAlgebra, WeylElement, ZeroElement,
                     bernstein_order, buchberger, free_resolution,
                     leading_term, left_normal_form, pot_block_order,
                     preimage_rows, syz_of_list, vres_order)
from weylmod import bernstein_degree, groebner, to_str
from weylmod._linalg import add_terms
from weylmod._packed import Memo, layout, widening
from weylmod.cli import run
from weylmod.groebner import TermOrder, colon_z, saturate_z, submodule_equal

from helpers import (inhomogeneous_h1, is_h_homogeneous, rand_element,
                     rand_scalar)
from oracles import (all_monomials, basis_certificate, brute_member,
                     field_normal_form, leibniz_combination)

W = WeylAlgebra(1, QQ)


def vec(*entries):
    rank = len(entries)
    return FreeVec.from_entries(list(entries), rank=rank)


def ideal_rows(*gens):
    return [vec(g) for g in gens]


def test_gb_contains_generators():
    x, d = W.x(1), W.d(1)
    rows = ideal_rows(d * d - x, x * d + 2)
    gb = buchberger(rows, bernstein_order(1))
    for r in rows:
        assert gb.contains(r)


def test_unit_ideal_detected():
    x, d = W.x(1), W.d(1)
    # [d, x] = 1 lies in the ideal generated by x and d
    gb = buchberger(ideal_rows(x, d), bernstein_order(1))
    assert gb.is_full_module()


def test_normal_form_is_linear_and_idempotent():
    rng = random.Random(37)
    x, d = W.x(1), W.d(1)
    gb = buchberger(ideal_rows(d * d - x), bernstein_order(1))
    order = bernstein_order(1)
    for _ in range(15):
        u = vec(rand_element(rng, W, deg=4, terms=3))
        v = vec(rand_element(rng, W, deg=4, terms=3))
        nu = left_normal_form(u, gb, order)
        nv = left_normal_form(v, gb, order)
        assert left_normal_form(nu, gb, order) == nu
        assert left_normal_form(u + v, gb, order) == nu + nv


def test_membership_vs_brute_force():
    rng = random.Random(41)
    for trial in range(6):
        gens = [rand_element(rng, W, deg=3, terms=2) for _ in
                range(rng.randint(1, 3))]
        rows = ideal_rows(*gens)
        gb = buchberger(rows, bernstein_order(1))
        order = bernstein_order(1)
        probes = []
        for _ in range(3):
            q = rand_element(rng, W, deg=2, terms=2)
            probes.append(q * gens[rng.randrange(len(gens))])
        probes.extend(rand_element(rng, W, deg=3, terms=2)
                      for _ in range(3))
        for p in probes:
            mine = left_normal_form(vec(p), gb, order).is_zero()
            ref = brute_member(p, gens, 8)
            assert mine == ref


def test_nf_membership_vs_brute_force_n2():
    """The CLI nf on the W_2 GKZ module A = [1 2] against linear algebra."""
    A = WeylAlgebra(2, QQ)
    x1, x2, d1, d2 = A.x(1), A.x(2), A.d(1), A.d(2)
    gens = [d1 * d1 - d2, x1 * d1 + 2 * x2 * d2 - A.scalar(Fraction(1, 2))]
    session = ("ring W(2) over QQ; module M = coker [[d1^2 - d2], "
               "[x1*d1 + 2*x2*d2 - 1/2]]; check M nf ")
    leads = [(a, b) for (_comp, a, b, _e), _c in
             buchberger(ideal_rows(*gens), bernstein_order(2)).leads]
    standard = [A.monomial(a, b) for a, b in all_monomials(2, 2)
                if not any(all(s >= t for s, t in zip(a + b, la + lb))
                           for la, lb in leads)]
    assert len(standard) > 1

    def nf_member(v):
        report, code = run(session + to_str(v), {"stats": False})
        assert code == 0
        return report["result"]["member"]

    rng = random.Random(97)
    tested = 0
    while tested < 6:
        qs = [rand_element(rng, A, deg=2, terms=2) for _ in gens]
        member = sum((q * g for q, g in zip(qs, gens)), A.zero())
        if member.is_zero():
            continue
        tested += 1
        bound = max(bernstein_degree(q) + bernstein_degree(g)
                    for q, g in zip(qs, gens))
        assert nf_member(member)
        assert brute_member(member, gens, bound)
        shifted = member + rng.choice(standard)
        assert not nf_member(shifted)
        assert not brute_member(shifted, gens, bound)


def combine(coeffs, rows, zero):
    """sum_k coeffs_k rows[k], for coeffs a FreeVec over W^len(rows)."""
    acc = zero
    for (k, a, b, e), c in coeffs.terms.items():
        acc = acc + rows[k].mul_monomial(a, b, e, c)
    return acc


def check_tracked(gens, order):
    """The tracked outputs of buchberger and the syzygies of gens.

    syz_of_list composes the Schreyer syzygies of the tracked basis with
    its transform, so its rows check both.
    """
    gb = buchberger(gens, order, track=True)
    zero = FreeVec.zero(gens[0].n, gens[0].ring, gens[0].rank)
    for g, t in zip(gb.elements, gb.transform):
        assert combine(t, gens, zero) == g
    for r, lift in zip(gens, gb.lifts):
        assert combine(lift, gb.elements, zero) == r
    syz = syz_of_list(gens)
    for sig in syz:
        assert combine(sig, gens, zero).is_zero()
    assert all(leading_term(g, order)[1] == 1 for g in gb.elements)
    return gb, syz


def test_gb_transform_and_lifts():
    x, d = W.x(1), W.d(1)
    check_tracked(ideal_rows(d * d - x, x * x * d), bernstein_order(1))


# lead coefficients forced onto the inputs: negative, non-unit, or both
FORCED_LEADS = {
    QQ: [Fraction(-1), Fraction(3), Fraction(-5, 2)],
    ZP: [Fraction(-1), Fraction(4, 3), Fraction(-6)],
    H1: [Fraction(-1), Fraction(2), Fraction(-7, 3)],
    QZ: [RatFunc(-1), RatFunc(QPoly((2, 1)), QPoly((3,))),
         RatFunc(QPoly((-1, 0, 1)), QPoly((1, 5)))],
}


def homogenized(entries):
    """h-homogeneous entries: every term lifted to the top total degree."""
    top = max(sum(a) + sum(b) + e for w in entries for (a, b, e) in w.terms)
    return [WeylElement(1, H1, add_terms({}, (
        ((a, b, top - sum(a) - sum(b)), c) for (a, b, _e), c in
        w.terms.items()))) for w in entries]


def random_gens(rng, ring, rank, order, n=1, deg=1):
    """Two random left multiples of a random row, then a third random row.

    Each lead coefficient is forced to one of FORCED_LEADS[ring].
    """
    A = WeylAlgebra(n, ring)

    def element(count):
        while True:
            entries = [rand_element(rng, A, deg=deg, terms=2)
                       for _ in range(count)]
            if ring == H1:
                entries = homogenized(entries)
            if not any(w.is_zero() for w in entries):
                return entries

    f = FreeVec.from_entries(element(rank), rank=rank)
    gens = []
    for v in [f.mul_left(element(1)[0]) for _ in range(2)] + [
            FreeVec.from_entries(element(rank), rank=rank)]:
        lc = leading_term(v, order)[1]
        gens.append(v.scale(rng.choice(FORCED_LEADS[ring]) / lc))
    return gens


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("ring", [QQ, ZP, QZ, H1])
def test_gb_transform_and_lifts_random(ring, rank):
    # integer rows inside the kernel leave it as Fraction rows, RatFunc
    # rows as RatFunc rows; the scales of the division cancel on the way
    rng = random.Random("%s/%d" % (ring, rank))
    order = vres_order(1) if ring == H1 else bernstein_order(1)
    scalar = RatFunc if ring == QZ else Fraction
    for _ in range(3):
        gens = random_gens(rng, ring, rank, order)
        gb, syz = check_tracked(gens, order)
        member = gens[0].mul_monomial((1,), (0,), 0, FORCED_LEADS[ring][2]) \
            + gens[0].mul_monomial((0,), (1,), 0, 1)
        assert left_normal_form(member, gb, order).is_zero()
        rem = left_normal_form(random_gens(rng, ring, rank, order)[0], gb,
                               order)
        out = gb.elements + gb.transform + gb.lifts + syz + [rem]
        assert all(type(c) is scalar for v in out for c in v.terms.values())


TRACKED = [(QQ, 1), (ZP, 1), (QZ, 1), (H1, 1), (QQ, 2), (ZP, 2), (QZ, 2)]


@pytest.mark.parametrize("ring,n", TRACKED,
                         ids=["%s%d" % (r, n) for r, n in TRACKED])
def test_tracked_outputs_match_leibniz(ring, n):
    # every product of the check is taken by the Leibniz rule, so the
    # kernel's combination of tracked rows is checked by code it does
    # not share
    rng = random.Random("tracked/%s/%d" % (ring, n))
    order = vres_order(1) if ring == H1 else bernstein_order(n)
    homog = ring == H1
    for rank in (1, 2):
        gens = random_gens(rng, ring, rank, order, n)
        gb = buchberger(gens, order, track=True)
        for g, t in zip(gb.elements, gb.transform):
            assert leibniz_combination(t, gens, homog) == g.terms
        for g, lift in zip(gens, gb.lifts):
            assert leibniz_combination(lift, gb.elements, homog) == g.terms
        for s in syz_of_list(gens):
            assert not leibniz_combination(s, gens, homog)


@pytest.mark.parametrize("ring,n", [(QQ, 1), (ZP, 1), (QZ, 1), (H1, 1),
                                    (QQ, 2), (ZP, 2), (QZ, 2)])
def test_normal_form_matches_field_division(ring, n):
    # a GBasis reduces through the integer rows buchberger kept; a plain
    # list (non-monic, with a zero row) and a GBasis under another order
    # object become a GBasis whose rows are made on the fly
    rng = random.Random("nf/%s/%d" % (ring, n))
    order = vres_order(1) if ring == H1 else bernstein_order(n)
    other = groebner.TermOrder("copy", order._pack)
    for _ in range(3):
        gens = random_gens(rng, ring, 1, order, n)
        gb = buchberger(gens, order)
        plain = gens + [FreeVec.zero(n, ring, 1)]
        for _ in range(3):
            v = random_gens(rng, ring, 1, order, n, deg=3)[2]
            want = field_normal_form(v, gb.elements, order)
            assert left_normal_form(v, gb, order) == want
            assert left_normal_form(v, gb, other) == want
            assert left_normal_form(v, plain, order) == \
                field_normal_form(v, plain, order)


FLOORED = [(QQ, 1), (ZP, 1), (QZ, 1), (QQ, 2), (ZP, 2), (QZ, 2)]


@pytest.mark.parametrize("ring,n", FLOORED,
                         ids=["%s%d" % (r, n) for r, n in FLOORED])
def test_reduce_floor_keeps_the_remainder_above_it(ring, n):
    # division cut at a floor keeps exactly the full remainder's terms of
    # key >= floor: steps after the cut only add terms below it, and their
    # scales multiply the kept terms, so the two agree up to the scales.
    # The basis is the generator list itself: division by any list ends
    # under a well-order, and the cuts fall between its many steps
    rng = random.Random("floor/%s/%d" % (ring, n))
    order = bernstein_order(n)
    for rank in (1, 2):
        for _ in range(2):
            gens = random_gens(rng, ring, rank, order, n)
            basis = GBasis(n, ring, rank, order, gens)
            v = sum(random_gens(rng, ring, rank, order, n, deg=3)[1:],
                    gens[0])

            def check(lay):
                kernel = basis._kernel(lay)
                lay = kernel.layout
                # a fresh memo: afterwards it holds every monomial the
                # full division compared
                keys = Memo(order._pack(lay))
                p, den = groebner._clear(v.terms, lay)
                full, s, _q = groebner._reduce(p, kernel, keys)
                assert groebner._reduce(p, kernel, keys, floor=()) == \
                    (full, s, None)
                assert groebner._rational(full, s * den, ring, lay) == \
                    field_normal_form(v, gens, order).terms
                # cuts at each compared key, without and with its comp,
                # and at its whole Bernstein degree: the bits of the
                # packed key from cshift up
                whole = lay.cshift
                floors = {f for k in list(keys.values())
                          for f in (k[:1], k, (k[0] >> whole << whole,))}
                for floor in sorted(floors):
                    rem, s_floor, _q = groebner._reduce(p, kernel, keys,
                                                        floor=floor)
                    assert {m: c * s for m, c in rem.items()} == \
                        {m: c * s_floor for m, c in full.items()
                         if keys[m] >= floor}

            widening(check, layout(n, False))


def test_syzygies_kill_generators():
    x, d = W.x(1), W.d(1)
    gens = [d * d - x, x * d + 2, x * x]
    rows = ideal_rows(*gens)
    syz = syz_of_list(rows)
    assert syz, "these generators are dependent"
    for s in syz:
        acc = FreeVec(1, QQ, 1, {})
        for (k, a, b, e), c in s.terms.items():
            acc = acc + rows[k].mul_monomial(a, b, e, c)
        assert acc.is_zero()


def test_free_resolution_composes_to_zero():
    x, d = W.x(1), W.d(1)
    rows = ideal_rows(d * d - x, x * d + 2)
    res = free_resolution(rows, 1, 4)
    for step, nxt in zip(res.matrices, res.matrices[1:]):
        for s in nxt:
            acc = FreeVec(1, QQ, step[0].rank, {})
            for (k, a, b, e), c in s.terms.items():
                acc = acc + step[k].mul_monomial(a, b, e, c)
            assert acc.is_zero()


def test_h1_resolution_offsets_its_components():
    # x and d^2 have degrees 1 and 2, so the syzygies are homogeneous only
    # with component j counted the degree of row j higher, and so on
    H = WeylAlgebra(1, H1)
    res = free_resolution(ideal_rows(H.x(1), H.d(1) ** 2), 1, 3)
    assert len(res.matrices) == 3
    offsets = [0]
    for step, nxt in zip(res.matrices, res.matrices[1:]):
        degrees = []
        for row in step:
            found = {sum(a) + sum(b) + e + offsets[comp]
                     for comp, a, b, e in row.terms}
            assert len(found) == 1
            degrees += found
        assert len(set(degrees)) > 1
        for s in nxt:
            assert not leibniz_combination(s, step, homog=True)
        offsets = degrees


def test_free_resolution_extends_in_steps():
    x, d = W.x(1), W.d(1)
    rows = ideal_rows(d * d - x, x * d + 2)
    whole = free_resolution(rows, 1, 4)
    res = free_resolution(rows, 1, 0)
    assert len(res.matrices) == 1 and not res.complete
    for stage in (1, 1, 2, 4):
        assert res.extend(stage) is res
    assert (res.matrices, res.ranks, res.complete) == \
        (whole.matrices, whole.ranks, whole.complete)
    assert res.complete and res.extend(9).matrices == whole.matrices


def test_preimage_rows():
    x, d = W.x(1), W.d(1)
    target = ideal_rows(d * d - x)
    gens = ideal_rows(x * (d * d - x), d * (d * d - x) + (d * d - x))
    rel = preimage_rows(gens, target)
    # the two generators are x*g and (d+1)*g, so d*e1 - (x*d - x + ?) ...
    # only verify the defining property: each relation kills the gens
    for s in rel:
        acc = FreeVec(1, QQ, 1, {})
        for (k, a, b, e), c in s.terms.items():
            acc = acc + gens[k].mul_monomial(a, b, e, c)
        # lands inside the target module
        gb = buchberger(target, bernstein_order(1))
        assert gb.contains(acc)


def test_pot_block_order_eliminates():
    # components at or above the boundary dominate the rest
    order = pot_block_order(1, 1)
    v = FreeVec.from_entries([W.x(1) ** 5, W.d(1)], rank=2)
    (comp, a, b, e), c = leading_term(v, order)
    assert comp == 1
    # below the boundary the order is the plain degree order
    w = FreeVec.from_entries([W.x(1) ** 5, W.zero()], rank=2)
    (comp, a, b, e), c = leading_term(w, order)
    assert comp == 0 and sum(a) == 5


def test_rank_mismatch_rejected():
    with pytest.raises(RankMismatch):
        left_normal_form(vec(W.x(1)),
                         [FreeVec.from_entries([W.x(1), W.d(1)], rank=2)],
                         bernstein_order(1))


def _mixed_ranks():
    x, d = W.x(1), W.d(1)
    return [FreeVec.from_entries([x]), FreeVec.from_entries([x, d])]


def _mixed_algebras():
    return [vec(W.x(1)), vec(WeylAlgebra(2, QQ).x(2))]


def _mixed_rings():
    return [vec(W.x(1)), vec(WeylAlgebra(1, QZ).x(1))]


@pytest.mark.parametrize("make,error", [(_mixed_ranks, RankMismatch),
                                        (_mixed_algebras, MixedAmbient),
                                        (_mixed_rings, MixedAmbient)],
                         ids=["ranks", "algebras", "rings"])
def test_mixed_ambients_are_rejected(make, error):
    # each generator must live in the ambient of the first: a mixed list
    # gave a basis with a component beyond its rank, the unit basis of
    # x1 and x2, or an AttributeError
    rows = make()
    with pytest.raises(error):
        buchberger(rows, bernstein_order(1))
    with pytest.raises(error):
        syz_of_list(rows)
    with pytest.raises(error):
        preimage_rows(rows[:1], rows[1:])
    with pytest.raises(error):
        submodule_equal(rows, rows[:1])
    with pytest.raises(error):
        submodule_equal(rows[:1], rows[1:])


def test_normal_form_rejects_another_algebra():
    # a W_2 vector divided by W_1 rows was reduced as if x2 were x1
    A = WeylAlgebra(2, QQ)
    v = vec(A.x(2) * A.d(1))
    gb = buchberger([vec(W.x(1))], bernstein_order(1))
    empty = buchberger([vec(W.zero())], bernstein_order(1))
    for basis in (gb, gb.elements, empty):
        with pytest.raises(MixedAmbient):
            left_normal_form(v, basis, bernstein_order(1))
    with pytest.raises(MixedAmbient):
        left_normal_form(vec(WeylAlgebra(1, QZ).x(1)), gb,
                         bernstein_order(1))


def test_zp_coefficient_gb():
    A = WeylAlgebra(1, ZP)
    x, d, z = A.x(1), A.d(1), A.z()
    rows = [FreeVec.from_entries([z * d - A.one()], rank=1)]
    gb = buchberger(rows, bernstein_order(1))
    assert gb.elements
    # z*d - 1 generates: multiplying by d stays inside
    v = FreeVec.from_entries([d * (z * d - A.one())], rank=1)
    assert gb.contains(v)


def _gkz13():
    A = WeylAlgebra(2, QQ)
    x1, x2, d1, d2 = A.x(1), A.x(2), A.d(1), A.d(2)
    rows = [d1 ** 3 - d2, x1 * d1 + 3 * x2 * d2 - A.scalar(Fraction(1, 2))]
    return [vec(r) for r in rows], bernstein_order(2)


def _gkz3():
    A = WeylAlgebra(3, QQ)
    x1, x2, x3, d1, d2, d3 = A.x(1), A.x(2), A.x(3), A.d(1), A.d(2), A.d(3)
    rows = [d1 * d3 - d2 ** 2,
            x1 * d1 + x2 * d2 + x3 * d3 - A.scalar(Fraction(1, 2)),
            x2 * d2 + 2 * x3 * d3 - A.scalar(Fraction(1, 3))]
    return [vec(r) for r in rows], bernstein_order(3)


def _colon_block():
    """The doubled input colon_z builds for (z-deformed GKZ [1 2] : z)."""
    A = WeylAlgebra(2, ZP)
    x1, x2, d1, d2, z = A.x(1), A.x(2), A.d(1), A.d(2), A.z()
    rows = [d1 ** 2 - z * d2, x1 * d1 + 2 * x2 * d2 - A.scalar(Fraction(1, 2))]
    doubled = [FreeVec.from_entries([r, r]) for r in rows]
    doubled.append(FreeVec.from_entries([A.zero(), z]))
    return doubled, pot_block_order(2, 1)


# stats and sha256 of repr((elements, transform, lifts)); the digests were
# recorded with the sort-based pair list this engine replaced, when tracked
# calls kept every pair: the heap must pop S-pairs in the same order, and
# the pairs the chain criterion drops reduce to zero, so the tracked
# outputs repeat exactly with fewer S-pairs.
SELECTION_PINS = [
    (_gkz13, {"spairs": 6, "reductions_to_zero": 3, "basis_size": 5},
     "a3683f9366eb46c60d580f0d47a9c12c6bd8380535a3324d8dc07f25ee4955ec"),
    (_gkz3, {"spairs": 10, "reductions_to_zero": 7, "basis_size": 6},
     "bff2bbaf98201069060225fe13b7a578e6221ff0543bbe87da16c72afd635c57"),
    (_colon_block, {"spairs": 12, "reductions_to_zero": 6, "basis_size": 9},
     "69f36a885ae07caaa87dff7572e5946fee9bcd7a14c94b2d20918e449a70f4d9"),
]


@pytest.mark.parametrize("make,stats,digest", SELECTION_PINS,
                         ids=["gkz13", "gkz3", "colon"])
def test_selection_order_pinned(make, stats, digest):
    gens, order = make()
    gb = buchberger(gens, order, track=True)
    assert gb.stats == stats
    got = repr((gb.elements, gb.transform, gb.lifts)).encode()
    assert hashlib.sha256(got).hexdigest() == digest


def _random_modules(ring, order, n=1, degrees=(1, 2)):
    rng = random.Random("criteria/%s/%s" % (ring, order.name))
    return [(random_gens(rng, ring, rank, order, n, deg), order)
            for rank in (1, 2, 3) for deg in degrees for _ in range(3)]


CRITERIA_CASES = {
    "QQ": lambda: _random_modules(QQ, bernstein_order(1)),
    "QQ-W2": lambda: _random_modules(QQ, bernstein_order(2), 2, (1,)),
    "ZP": lambda: _random_modules(ZP, bernstein_order(1)),
    # RatFunc coefficients grow fast beyond degree 1
    "QZ": lambda: _random_modules(QZ, bernstein_order(1), 1, (1,)),
    "H1": lambda: _random_modules(H1, bernstein_order(1)),
    "H1-vres": lambda: _random_modules(H1, vres_order(1)),
    "gkz13": lambda: [_gkz13()],
    "gkz3": lambda: [_gkz3()],
    "colon": lambda: [_colon_block()],
}


def _unpruned(order):
    """The same order, not marked graded: buchberger then keeps every pair."""
    return TermOrder(order.name, order._pack, graded=False)


@pytest.mark.parametrize("case", sorted(CRITERIA_CASES))
def test_pair_criteria_keep_the_reduced_basis(monkeypatch, case):
    # the order rebuilt without graded prunes nothing, so it is the
    # reference: pruning may skip S-pairs but change neither the basis,
    # nor the order in which its elements are found, nor the tracked
    # transform, lifts and syzygies; under the V-order nothing is pruned
    pruned = 0
    for gens, order in CRITERIA_CASES[case]():
        fast = buchberger(gens, order)
        tracked = buchberger(gens, order, track=True)
        full = buchberger(gens, _unpruned(order), track=True)
        assert fast.elements == tracked.elements == full.elements
        assert tracked.transform == full.transform
        assert tracked.lifts == full.lifts
        assert fast.stats["spairs"] == tracked.stats["spairs"] <= \
            full.stats["spairs"]
        pruned += full.stats["spairs"] - tracked.stats["spairs"]
        syz = syz_of_list(gens)
        with monkeypatch.context() as m:
            m.setattr(groebner, "bernstein_order",
                      lambda n: _unpruned(bernstein_order(n)))
            assert syz_of_list(gens) == syz
    assert (pruned == 0) == (case == "H1-vres")


CERTIFIED = [(QQ, 1), (QQ, 2), (ZP, 1), (ZP, 2), (QZ, 1), (QZ, 2), (H1, 1)]


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("ring,n", CERTIFIED,
                         ids=["%s%d" % (r, n) for r, n in CERTIFIED])
def test_pruned_tracked_bases_are_certified(ring, n, rank):
    # tracked calls drop the pairs the chain criterion covers; the
    # certificate shares no code with the criterion or the division loop
    rng = random.Random("certified/%s/%d/%d" % (ring, n, rank))
    order = bernstein_order(n)
    for _ in range(3):
        gens = random_gens(rng, ring, rank, order, n)
        gb = buchberger(gens, order, track=True)
        assert basis_certificate(gb, gens, order) == []


@pytest.mark.parametrize("make", [_gkz13, _gkz3, _colon_block],
                         ids=["gkz13", "gkz3", "colon"])
def test_pinned_tracked_bases_are_certified(make):
    gens, order = make()
    gb = buchberger(gens, order, track=True)
    assert basis_certificate(gb, gens, order) == []
    # and it rejects a basis with an element dropped, a transform
    # coefficient perturbed or a lift term dropped
    elements, transform, lifts = gb.elements, gb.transform, gb.lifts
    t = dict(transform[-1].terms)
    key = next(iter(t))
    t[key] += 1
    first = lifts[0]
    faults = {
        "element": (elements[:-1], transform[:-1], lifts),
        "transform": (elements, transform[:-1] + [transform[-1]._like(t)],
                      lifts),
        "lift": (elements, transform, [
            first._like(dict(list(first.terms.items())[1:]))] + lifts[1:]),
    }
    for name, (e, tr, li) in faults.items():
        fake = types.SimpleNamespace(elements=e, transform=tr, lifts=li)
        assert basis_certificate(fake, gens, order), name


def test_zp_runaway_is_pruned():
    # with every S-pair kept this basis ran for over a minute; the
    # certificate shares no code with the pair criteria: every input row
    # and every S-polynomial of the monic basis reduces to zero on it
    A = WeylAlgebra(1, ZP)
    x, d, z, one = A.x(1), A.d(1), A.z(), A.one()
    F = Fraction
    gens = [FreeVec.from_entries(row) for row in [
        [-z * x * d, A.zero()],
        [-z * z * d - 7 * z + F(3, 2) * one, F(11, 3) * d + 3 * z * z],
        [-z * z * d * d - F(3, 20) * one, F(-3, 20) * x - F(1, 4) * z * d]]]
    order = bernstein_order(1)
    gb = buchberger(gens, order)
    assert gb.stats["basis_size"] == 5
    for g in gens:
        assert left_normal_form(g, gb, order).is_zero()
    for sp in _s_polynomials(gb):
        assert left_normal_form(sp, gb, order).is_zero()


def _s_polynomials(gb):
    """The S-polynomial of each pair of monic basis elements in one comp."""
    for (g, ((ci, ai, bi, ei), _c)), (h, ((cj, aj, bj, ej), _d)) in \
            itertools.combinations(zip(gb.elements, gb.leads), 2):
        if ci != cj:
            continue
        a, b = tuple(map(max, ai, aj)), tuple(map(max, bi, bj))
        e = max(ei, ej)
        yield g.mul_monomial(tuple(s - t for s, t in zip(a, ai)),
                             tuple(s - t for s, t in zip(b, bi)), e - ei, 1) \
            - h.mul_monomial(tuple(s - t for s, t in zip(a, aj)),
                             tuple(s - t for s, t in zip(b, bj)), e - ej, 1)


def _qz_modules(n):
    """Seeded QZ generator lists in W_n: random rows, and GKZ-like systems
    with random rational functions of z for parameters."""
    rng = random.Random("zcert/%d" % n)
    order = bernstein_order(n)
    A = WeylAlgebra(n, QZ)
    one, x, d = A.one(), A.x(1), A.d(1)
    out = [random_gens(rng, QZ, rank, order, n, deg)
           for rank in (1, 2) for deg in (1, 2)[:3 - n]]
    for _ in range(3):
        r, c = (one.scale(rand_scalar(rng, QZ)) for _ in range(2))
        if n == 1:
            out.append([vec(x * d - r, d), vec(d * d - c, x)])
        else:
            out.append([vec(d * d - c * A.d(2)),
                        vec(x * d + 2 * A.x(2) * A.d(2) - r)])
    return order, out


@pytest.mark.parametrize("n", [1, 2])
def test_qz_basis_certified_over_the_field(n):
    # QZ rows run through the kernel cleared to Z[z]; the certificate is
    # textbook division over Q(z) on the RatFunc rows that leave it: the
    # basis is monic, spans every input row, and every S-polynomial of it
    # reduces to zero
    order, modules = _qz_modules(n)
    spolys = 0
    for gens in modules:
        gb = buchberger(gens, order)
        assert all(leading_term(g, order)[1] == 1 for g in gb.elements)
        for v in gens + list(_s_polynomials(gb)):
            assert field_normal_form(v, gb.elements, order).is_zero()
        spolys += len(list(_s_polynomials(gb)))
    assert spolys


# on gkz3 and colon interreduction changes a tail; a second pass would
# change nothing, since tail reduction leaves every lead in place
@pytest.mark.parametrize("make", [_gkz13, _gkz3, _colon_block],
                         ids=["gkz13", "gkz3", "colon"])
def test_interreduce_is_one_pass(monkeypatch, make):
    calls = []
    kept = []
    real_reduce, real_interreduce = groebner._reduce, groebner._interreduce

    def counted(*args, **kwargs):
        calls.append(1)
        return real_reduce(*args, **kwargs)

    def spied(basis, trans, keys):
        monkeypatch.setattr(groebner, "_reduce", counted)
        out = real_interreduce(basis, trans, keys)
        monkeypatch.setattr(groebner, "_reduce", real_reduce)
        kept.append(len(out[0].rows))
        return out

    monkeypatch.setattr(groebner, "_interreduce", spied)
    gens, order = make()
    gb = buchberger(gens, order, track=True)
    assert kept == [len(gb.elements)]
    assert len(calls) == len(gb.elements)


@pytest.mark.parametrize("ring", [QQ, ZP], ids=["QQ", "ZP"])
def test_zero_generators_only(ring):
    zero = FreeVec.zero(2, ring, 3)
    gb = buchberger([zero, zero], bernstein_order(2), track=True)
    assert (gb.n, gb.ring, gb.rank) == (2, ring, 3)
    assert gb.elements == gb.leads == gb.transform == []
    # lifts live over the empty basis, as for any other input
    assert gb.lifts == [FreeVec.zero(2, ring, 0)] * 2
    assert gb.stats == {"spairs": 0, "reductions_to_zero": 0,
                        "basis_size": 0}
    assert not gb.is_full_module()


def test_leads_computed_once(monkeypatch):
    calls = []
    real = groebner.leading_term

    def counted(v, order):
        calls.append(1)
        return real(v, order)

    monkeypatch.setattr(groebner, "leading_term", counted)
    gens, order = _gkz3()
    gb = buchberger(gens, order, track=True)
    pushed = len(gens) + gb.stats["spairs"] - gb.stats["reductions_to_zero"]
    assert len(calls) <= 2 * pushed
    assert gb.leads == [real(g, order) for g in gb.elements]


def test_zero_vector_has_no_leading_term():
    # max() of no terms raised a bare ValueError
    zero = FreeVec.zero(1, QQ, 1)
    with pytest.raises(ZeroElement):
        leading_term(zero, bernstein_order(1))
    with pytest.raises(ZeroElement):
        GBasis(1, QQ, 1, bernstein_order(1), [zero])


def test_h1_input_must_be_homogeneous():
    h = FreeVec(1, H1, 1, {(0, (1,), (1,), 0): Fraction(1),
                           (0, (0,), (0,), 0): Fraction(1)})
    with pytest.raises(InternalInvariant):
        buchberger([h], vres_order(1))
    with pytest.raises(InternalInvariant):
        left_normal_form(h, [], vres_order(1))


INHOMOGENEOUS = {"bernstein": (bernstein_order(1), (1, 2)),
                 "pot-block": (pot_block_order(1, 1), (2,))}


@pytest.mark.parametrize("name", sorted(INHOMOGENEOUS))
def test_h1_graded_orders_take_inhomogeneous_input(name):
    # a graded order is a well-order, so over H1 it needs no homogeneity:
    # only the V-order checks it (test_h1_input_must_be_homogeneous)
    order, ranks = INHOMOGENEOUS[name]
    rng = random.Random("h1-inhomogeneous/" + name)
    mixed = 0
    for k in range(20):
        gens = inhomogeneous_h1(rng, ranks[k % len(ranks)])
        mixed += not all(map(is_h_homogeneous, gens))
        gb = buchberger(gens, order, track=True)
        assert basis_certificate(gb, gens, order) == []
        for s in syz_of_list(gens):
            assert not leibniz_combination(s, gens, homog=True)
    assert mixed >= 15


def test_syzygies_reject_a_non_basis():
    x, d = W.x(1), W.d(1)
    # d*x - x*d = 1 does not reduce to zero on {x, d}
    fake = GBasis(1, QQ, 1, bernstein_order(1), ideal_rows(x, d))

    def run(lay):
        basis = fake._kernel(lay)
        return groebner._syzygies(basis, fake.order.packed(basis.layout))
    with pytest.raises(InternalInvariant):
        widening(run, layout(1, False))


def test_colon_z_needs_zp():
    with pytest.raises(UnsupportedAmbient):
        colon_z(ideal_rows(W.x(1)), 1)


# exponents beyond any fixed field width, through the kernel: the basis
# must come out as the Leibniz rule and field division say, never wrapped
@pytest.mark.parametrize("bits", [7, 8, 16, 32, 36, 64])
def test_kernel_huge_exponents_are_exact(bits):
    big = 2 ** bits
    x, d = W.x(1), W.d(1)
    X = W.monomial((big,), (0,))
    gens = [FreeVec.from_entries([X * d - W.one(), x]),
            FreeVec.from_entries([X * d * d, d - W.one()])]
    gb, _syz = check_tracked(gens, bernstein_order(1))
    assert gb.stats == {"spairs": 2, "reductions_to_zero": 0,
                        "basis_size": 2}
    assert all(gb.contains(g) for g in gens)
    # a basis of small degree, then a vector far above it
    small = buchberger([vec(x * d - W.one())], bernstein_order(1))
    v = vec(W.monomial((big + 1,), (1,)) + W.monomial((3,), (big,)))
    assert left_normal_form(v, small, small.order) == \
        field_normal_form(v, small.elements, small.order)


def random_rows(rng, ring, n, rank, count):
    A = WeylAlgebra(n, ring)
    return [FreeVec.from_entries([rand_element(rng, A, deg=1, terms=2)
                                  for _ in range(rank)], rank=rank)
            for _ in range(count)]


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("ring,n", [(QQ, 1), (ZP, 1), (QZ, 1),
                                    (QQ, 2), (ZP, 2), (QZ, 2)])
def test_submodule_equal_is_two_way_containment(ring, n, rank):
    # a monic reduced basis is unique, so comparing bases decides what
    # containment both ways decides.  a: two left multiples of a random
    # row; pairs equal to it by construction (a scaled row, a row plus a
    # left multiple of another, a redundant row) and pairs with one row
    # moved by a random row
    rng = random.Random("equal/%s/%d/%d" % (ring, n, rank))
    A = WeylAlgebra(n, ring)
    order = bernstein_order(n)
    for _ in range(3):
        f = random_rows(rng, ring, n, rank, 1)[0]
        a = [f.mul_left(rand_element(rng, A, deg=1, terms=2))
             for _ in range(2)]
        w = rand_element(rng, A, deg=1, terms=2)
        same = [a[1].scale(rand_scalar(rng, ring)),
                a[0] + a[1].mul_left(w), a[0].mul_left(w)]
        moved = [a[0] + random_rows(rng, ring, n, rank, 1)[0], a[1]]
        for b in (same, moved):
            ga, gb = buchberger(a, order), buchberger(b, order)
            both = all(ga.contains(g) for g in b) and \
                all(gb.contains(g) for g in a)
            assert submodule_equal(a, b) == both
            assert both or b is moved


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("n", [1, 2])
def test_saturation_is_a_reduced_basis(n, rank):
    # colon_z returns a reduced basis, so the saturation is its own
    # reduced basis, and its colon by z gives back the same set
    rng = random.Random("saturate/%d/%d" % (n, rank))
    z = WeylAlgebra(n, ZP).z()
    order = bernstein_order(n)
    for _ in range(3):
        rows = [r.mul_left(z) if rng.randint(0, 1) else r
                for r in random_rows(rng, ZP, n, rank, 2)]
        sat = saturate_z(rows, rank)
        assert set(buchberger(sat, order).elements) == set(sat)
        assert set(colon_z(sat, rank)) == set(sat)
