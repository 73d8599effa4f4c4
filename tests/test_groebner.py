"""Left Groebner bases: soundness against brute force, syzygies, orders."""

import hashlib
import random
from fractions import Fraction

import pytest

from weylmod import (H1, QQ, ZP, FreeVec, GBasis, InternalInvariant,
                     RankMismatch, UnsupportedAmbient, WeylAlgebra,
                     bernstein_order, buchberger, free_resolution,
                     leading_term, left_normal_form, pot_block_order,
                     preimage_rows, syz_of_list, vres_order)
from weylmod import bernstein_degree, groebner, to_str
from weylmod.cli import run
from weylmod.groebner import colon_z, syzygy_module

from helpers import rand_element
from oracles import all_monomials, brute_member

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


def test_gb_transform_and_lifts():
    x, d = W.x(1), W.d(1)
    rows = ideal_rows(d * d - x, x * x * d)
    gb = buchberger(rows, bernstein_order(1), track=True)
    # transform rows rewrite each basis element over the input rows
    for g, t in zip(gb.elements, gb.transform):
        acc = FreeVec(1, QQ, 1, {})
        for (k, a, b, e), c in t.terms.items():
            acc = acc + rows[k].mul_monomial(a, b, e, c)
        assert acc == g
    for r, lift in zip(rows, gb.lifts):
        acc = FreeVec(1, QQ, 1, {})
        for (k, a, b, e), c in lift.terms.items():
            acc = acc + gb.elements[k].mul_monomial(a, b, e, c)
        assert acc == r


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


# stats and sha256 of repr((elements, transform, lifts)), recorded with the
# sort-based pair list this engine replaced: the heap must pop S-pairs in
# the same order, so the tracked outputs repeat exactly.
SELECTION_PINS = [
    (_gkz13, {"spairs": 10, "reductions_to_zero": 7, "basis_size": 5},
     "a3683f9366eb46c60d580f0d47a9c12c6bd8380535a3324d8dc07f25ee4955ec"),
    (_gkz3, {"spairs": 15, "reductions_to_zero": 12, "basis_size": 6},
     "bff2bbaf98201069060225fe13b7a578e6221ff0543bbe87da16c72afd635c57"),
    (_colon_block, {"spairs": 16, "reductions_to_zero": 10, "basis_size": 9},
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

    def spied(basis, leads, trans, order):
        monkeypatch.setattr(groebner, "_reduce", counted)
        out = real_interreduce(basis, leads, trans, order)
        monkeypatch.setattr(groebner, "_reduce", real_reduce)
        kept.append(len(out[0]))
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


def test_h1_input_must_be_homogeneous():
    h = FreeVec(1, H1, 1, {(0, (1,), (1,), 0): Fraction(1),
                           (0, (0,), (0,), 0): Fraction(1)})
    with pytest.raises(InternalInvariant):
        buchberger([h], vres_order(1))
    with pytest.raises(InternalInvariant):
        left_normal_form(h, [], vres_order(1))


def test_syzygy_module_rejects_a_non_basis():
    x, d = W.x(1), W.d(1)
    # d*x - x*d = 1 does not reduce to zero on {x, d}
    fake = GBasis(1, QQ, 1, bernstein_order(1), ideal_rows(x, d))
    with pytest.raises(InternalInvariant):
        syzygy_module(fake)


def test_colon_z_needs_zp():
    with pytest.raises(UnsupportedAmbient):
        colon_z(ideal_rows(W.x(1)), 1)
