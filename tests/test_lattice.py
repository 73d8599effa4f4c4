"""Integral presentations, saturation, reduction and lattice comparison."""

import random
from fractions import Fraction

import pytest

from weylmod import (LEFT, QQ, QZ, RIGHT, ZP, FreeVec, IndexOutOfRange,
                     IntegralPresentation, KunnethReport, Lattice, NonIntegral,
                     NotMinimalDimension, NotSameModule, NotSaturated,
                     PresentedModule, QPoly, RankMismatch, RatFunc,
                     UnsupportedAmbient, WeylAlgebra, WeylmodError,
                     bernstein_order, buchberger,
                     char_cycle, compare_lattices, convert_ring, ext,
                     good_lattice, groebner, is_minimal_dimension,
                     kunneth_check, lattice, left_normal_form, make_lattice,
                     minimal_dimension_via_reduction, parse,
                     preimage_rows, reduce_mod_z, saturate_z, to_str)
from weylmod.groebner import _Rows

from helpers import battery_avatars, free_avatar, rand_element
from oracles import (freevec_colon_z, freevec_reduce_mod_z,
                     freevec_saturate_z, kunneth_reference)

A = WeylAlgebra(1, QZ)
Z = WeylAlgebra(1, ZP)


def pres(*gens):
    return IntegralPresentation.from_qz_matrix(1, [[g] for g in gens])


def test_from_qz_matrix_clears_unit_denominators():
    inv1z = A.scalar(RatFunc(QPoly.const(Fraction(1)), QPoly((1, 1))))
    P = pres(A.d(1) - inv1z)
    # rows now live over Q[z] with no denominators
    for r in P.rows:
        for w in r.entries():
            assert w.ring == ZP


def test_right_rows_over_q_z_are_transposed():
    # a module stores left data: the right module W/(x1 d1)W is carried as
    # W/W tau(x1 d1), whether its rows are given over Q(z) or over Q[z]
    P = IntegralPresentation.from_qz_matrix(1, [[A.x(1) * A.d(1)]],
                                            side=RIGHT)
    M = PresentedModule.from_matrix(1, ZP, [[Z.x(1) * Z.d(1)]], side=RIGHT)
    assert P.rows == M.rows
    assert ext(1, P).rows == ext(1, M).rows == [
        FreeVec.from_entries([-Z.x(1) * Z.d(1)])]
    W = WeylAlgebra(1, QQ)
    reduced = PresentedModule.from_matrix(1, QQ, [[W.x(1) * W.d(1)]],
                                          side=RIGHT)
    got = reduce_mod_z(make_lattice(P)).reduced_module
    assert got.side == RIGHT
    assert got.gb().elements == reduced.gb().elements


def test_from_qz_matrix_rejects_poles_at_zero():
    invz = A.scalar(RatFunc(QPoly.const(Fraction(1)), QPoly((0, 1))))
    with pytest.raises(NonIntegral):
        pres(A.d(1) - invz)


def test_rank_is_the_width_of_the_first_nonempty_row():
    P = IntegralPresentation.from_qz_matrix(1, [[], [A.d(1), A.x(1)]])
    W = WeylAlgebra(1, QQ)
    M = PresentedModule.from_matrix(1, QQ, [[], [W.d(1), W.x(1)]])
    assert P.rank == M.rank == 2
    assert P.rows[0].entries() == [Z.d(1), Z.x(1)]


@pytest.mark.parametrize("width,rank", [(2, 1), (1, 2)])
def test_rows_of_another_width_raise(width, rank):
    with pytest.raises(RankMismatch):
        IntegralPresentation.from_qz_matrix(1, [[A.one()] * width],
                                            rank=rank)


def test_presentation_rows_of_another_rank_raise():
    # a rank-3 row in a rank-2 presentation was kept, and saturation then
    # returned [], the free module, as if no relation had been given
    row = FreeVec.from_entries([Z.d(1), Z.x(1), Z.one()])
    with pytest.raises(RankMismatch):
        IntegralPresentation(1, LEFT, 2, [row])
    with pytest.raises(RankMismatch):
        saturate_z([row], 2)
    with pytest.raises(RankMismatch):
        groebner.colon_z([row], 2)


def test_make_lattice_idempotent():
    P = make_lattice(pres(A.z() * A.d(1) - A.z()))
    Q = make_lattice(P)
    assert Q is P
    order = bernstein_order(1)
    ga = buchberger(P.rows, order)
    for r in Q.rows:
        assert ga.contains(r)
    gb = buchberger(Q.rows, order)
    for r in P.rows:
        assert gb.contains(r)


def test_saturation_divides_out_z():
    # z*(d - 1) generates; saturation must contain d - 1 itself
    P = make_lattice(pres(A.z() * (A.d(1) - A.one())))
    target = FreeVec.from_entries([Z.d(1) - Z.one()], rank=1)
    gb = buchberger(P.rows, bernstein_order(1))
    assert gb.contains(target)


def _mixed_torsion():
    """Rank 2: z^2 d1 e_0 and x1 d1 e_0 + z x1 e_1, torsion of two orders."""
    x, d, z = Z.x(1), Z.d(1), Z.z()
    return [FreeVec.from_entries([z * z * d, Z.zero()]),
            FreeVec.from_entries([x * d, z * x])]


# each round is one colon_z; the input's basis is the one more call
@pytest.mark.parametrize("rows,rank,saturated,calls", [
    ([FreeVec.from_entries([Z.z() ** 2 * Z.x(1) * Z.d(1) - Z.z() ** 3])], 1,
     [["x1*d1 - z"]], 4),
    (_mixed_torsion(), 2, [["d1", "0"], ["0", "x1"]], 5),
], ids=["z^2*x1*d1 - z^3", "mixed-torsion"])
def test_saturation_rounds_pinned(rows, rank, saturated, calls):
    groebner.reset_counters()
    out = saturate_z(rows, rank)
    assert [[to_str(w) for w in r.entries()] for r in out] == saturated
    assert groebner.COUNTERS["buchberger_calls"] == calls


def test_reduce_requires_saturation():
    P = pres(A.z() * A.d(1))
    with pytest.raises(NotSaturated):
        reduce_mod_z(P)


LATTICE_ENTRY_POINTS = {
    "make_lattice": make_lattice,
    "reduce_mod_z": reduce_mod_z,
    "good_lattice": good_lattice,
    "kunneth_check": lambda M: kunneth_check(M, 0),
    "Lattice": Lattice,
    "compare_lattices": lambda M: compare_lattices(M, M),
}


@pytest.mark.parametrize("name", sorted(LATTICE_ENTRY_POINTS))
def test_lattice_entry_points_take_any_module(name):
    # an Ext module over Q[z] is a PresentedModule, never saturated: each
    # entry point saturates it or says why it cannot; a module over QQ
    # has no lattice
    call = LATTICE_ENTRY_POINTS[name]
    E = ext(1, make_lattice(pres(A.x(1) * A.d(1) - A.z())))
    assert type(E) is PresentedModule and E.ring == ZP
    try:
        call(E)
    except WeylmodError:
        pass
    M = PresentedModule.from_matrix(1, QQ, [[WeylAlgebra(1, QQ).d(1)]])
    with pytest.raises(UnsupportedAmbient):
        call(M)


def test_ext_module_becomes_a_lattice():
    E = ext(1, make_lattice(pres(A.x(1) * A.d(1) - A.z())))
    L = make_lattice(E)
    assert L.saturated and L.side == E.side and L.rank == E.rank
    with pytest.raises(NotSaturated):
        reduce_mod_z(E)
    assert not reduce_mod_z(L).is_zero


def test_zero_detection_with_generic_diagnostic():
    # z*d - 1 spans everything after completion but not over Q(z)
    P = make_lattice(pres(A.z() * A.d(1) - A.one()))
    rep = reduce_mod_z(P, with_generic_diagnostic=True)
    assert rep.is_zero
    assert rep.generic_fiber_is_zero is False


def test_battery_minimal_dimension():
    for name, P, _chi in battery_avatars():
        assert minimal_dimension_via_reduction(P), name
    assert not minimal_dimension_via_reduction(free_avatar())


def test_good_lattice_same_cycle():
    for name, P, _chi in battery_avatars():
        G = good_lattice(P)
        assert G.saturated
        rep = compare_lattices(Lattice(make_lattice(P)), Lattice(G))
        assert rep.equal, name
        assert rep.verdict_first and rep.verdict_second


def test_perturbed_lattice_same_cycle():
    for name, P, _chi in battery_avatars():
        base = make_lattice(P)
        gens = [FreeVec.from_entries([Z.z()], rank=1),
                FreeVec.from_entries([Z.x(1)], rank=1)]
        rep = compare_lattices(Lattice(base), Lattice(base, gens))
        assert rep.equal, name


def test_compare_rejects_different_modules():
    P = make_lattice(pres(A.d(1)))
    Q = make_lattice(pres(A.x(1)))
    with pytest.raises(NotSameModule):
        compare_lattices(Lattice(P), Lattice(Q))


def test_avatar_equality_runs_no_buchberger(monkeypatch):
    # two avatars of one module, saturated apart, hold their reduced bases
    # as their rows, so the same-module check reads the bases off them
    first, second = (make_lattice(pres(A.x(1) * A.d(1) - A.z() - 1))
                     for _ in range(2))
    assert first is not second

    class Stop(Exception):
        pass

    def stop(*args):
        raise Stop

    monkeypatch.setattr(lattice, "_containment_power", stop)
    groebner.reset_counters()
    with pytest.raises(Stop):
        compare_lattices(Lattice(first), Lattice(second))
    assert groebner.COUNTERS["buchberger_calls"] == 0


def test_compare_rejects_a_negative_z_power():
    L = Lattice(make_lattice(pres(A.d(1))))
    with pytest.raises(IndexOutOfRange, match="z power -1"):
        compare_lattices(L, L, zpower=-1)


def test_containment_reruns_on_wider_fields():
    # the standard generator never enters W d1, so z^a e_0 is tried up to
    # a = 100, past the exponents the narrowest packed field holds; z^70
    # e_0 spans a lattice of the same module, 70 powers of z apart
    P = make_lattice(pres(A.d(1)))
    L = Lattice(P, [FreeVec.from_entries([Z.d(1)], rank=1)])
    with pytest.raises(NotSameModule, match="z power 100"):
        compare_lattices(Lattice(P), L, zpower=100)
    L = Lattice(P, [FreeVec.from_entries([Z.z() ** 70], rank=1)])
    assert compare_lattices(Lattice(P), L, zpower=70).equal
    with pytest.raises(NotSameModule, match="z power 69"):
        compare_lattices(Lattice(P), L, zpower=69)


def test_kunneth_zero_pattern_battery():
    for name, P, _chi in battery_avatars():
        sat = make_lattice(P)
        for i in (0, 1):
            rep = kunneth_check(sat, i)
            assert rep.zero_pattern_ok, (name, i)
            assert rep.additivity_ok in (True, None), (name, i)


def test_kunneth_tor_vanishes_for_polynomial_avatar():
    name, P, _chi = battery_avatars()[0]
    rep = kunneth_check(make_lattice(P), 1)
    assert rep.tor_term.is_zero()
    assert rep.cycles["a"] == rep.cycles["b"]


def test_lattice_presentation_saturated():
    name, P, _chi = battery_avatars()[3]
    base = make_lattice(P)
    gens = [FreeVec.from_entries([Z.z()], rank=1),
            FreeVec.from_entries([Z.x(1)], rank=1)]
    L = Lattice(base, gens)
    Q = L.presentation()
    assert Q.saturated
    assert Q.rank == 2
    rep = reduce_mod_z(Q)
    assert not rep.is_zero


def _qz_presentation(source):
    s = parse(source)
    return IntegralPresentation.from_qz_matrix(s.n, s.modules["M"])


def _avatar(source):
    return make_lattice(_qz_presentation(source))


def _hand_built():
    """A saturated presentation whose relations repeat a row."""
    r = FreeVec.from_entries([Z.x(1) * Z.d(1) - Z.z()], rank=1)
    s = FreeVec.from_entries([Z.d(1) ** 2], rank=1)
    return IntegralPresentation(1, LEFT, 1, [r, s, r], saturated=True)


@pytest.mark.parametrize("make", [
    lambda: _avatar("ring W(1) over QZ; "
                    "module M = coker [[x1*d1 - 1/2 - z]];"),
    lambda: _avatar("ring W(2) over QZ; module M = coker [[d1^2 - d2], "
                    "[x1*d1 + 2*x2*d2 - 1/2 - z]];"),
    _hand_built], ids=["Z1", "Z12", "repeated-row"])
def test_standard_lattice_is_presented_by_its_avatar(monkeypatch, make):
    P = make()
    L = Lattice(P)
    units = L.generator_rows()
    want = preimage_rows(units, P.rows)
    syzygies = []
    real = groebner.syz_of_list

    def spy(gens):
        syzygies.append(1)
        return real(gens)

    monkeypatch.setattr(groebner, "syz_of_list", spy)
    Q = L.presentation()
    assert not syzygies
    assert Q.rows == want
    assert Q.rows == list(dict.fromkeys(-r for r in P.rows))
    assert (Q.n, Q.side, Q.rank, Q.saturated) == (P.n, P.side, P.rank, True)


Z1 = "ring W(1) over QZ; module M = coker [[x1*d1 - 1/2 - z]];"
Z12 = ("ring W(2) over QZ; module M = coker [[d1^2 - d2], "
       "[x1*d1 + 2*x2*d2 - 1/2 - z]];")


@pytest.mark.parametrize("source,n", [(Z1, 1), (Z12, 2)], ids=["n1", "n2"])
def test_kunneth_checks_its_index_first(source, n):
    # Ext^(n+1) of the integral module exists, but the reduction has none:
    # the index is checked before any Ext is computed
    P = _avatar(source)
    assert kunneth_check(P, n).i == n
    groebner.reset_counters()
    with pytest.raises(IndexOutOfRange,
                       match=r"kunneth index %d outside 0\.\.%d" % (n + 1, n)):
        kunneth_check(P, n + 1)
    assert groebner.COUNTERS["buchberger_calls"] == 0


def _seeded_presentation(n, rank, seed):
    """Two random ZP rows of W_n^rank, each times z or not."""
    rng = random.Random("lattice/%d/%d/%d" % (n, rank, seed))
    W = WeylAlgebra(n, ZP)
    rows = [FreeVec.from_entries([rand_element(rng, W, deg=1, terms=2)
                                  for _ in range(rank)], rank=rank)
            for _ in range(2)]
    return IntegralPresentation(n, LEFT, rank, [
        r.mul_left(W.z()) if rng.randint(0, 1) else r for r in rows])


def _reference_good_lattice(P, rows):
    """good_lattice on FreeVecs from the saturated rows of P."""
    n = P.n
    E1 = ext(n, PresentedModule(n, ZP, P.side, P.rank, rows))
    rows1 = freevec_saturate_z(E1.rows, E1.rank)
    E2 = ext(n, PresentedModule(n, ZP, E1.side, E1.rank, rows1))
    return freevec_saturate_z(E2.rows, E2.rank)


SEEDED = [(n, rank, seed) for n in (1, 2) for rank in (1, 2)
          for seed in range(3)]


@pytest.mark.parametrize("make", [
    *(lambda args=args: _seeded_presentation(*args) for args in SEEDED),
    lambda: IntegralPresentation(1, LEFT, 2, _mixed_torsion()),
    lambda: _qz_presentation(Z1), lambda: _qz_presentation(Z12)],
    ids=["n%d-rank%d-%d" % args for args in SEEDED] + [
        "mixed-torsion", "Z1", "Z12"])
def test_lattice_layer_matches_the_freevec_reference(make):
    # the generic fiber, colon, saturation and reduction mod z run on
    # kernel rows; the FreeVecs they hand out are those the FreeVec steps
    # build
    P = make()
    n, rank = P.n, P.rank
    generic = P.generic_fiber_module()
    assert generic.rows == [r.map_entries(lambda w: convert_ring(w, QZ))
                            for r in P.rows]
    assert generic.is_zero() == PresentedModule(
        n, QZ, P.side, rank, generic.rows).is_zero()
    sat = make_lattice(P)
    rows = freevec_saturate_z(P.rows, rank)
    assert sat.rows == rows
    reduced = freevec_reduce_mod_z(rows)
    assert reduce_mod_z(sat).reduced_module.rows == reduced
    M = PresentedModule(n, ZP, P.side, rank, rows)
    for i in range(n + 1):
        E = ext(i + 1, M)
        torsion = freevec_colon_z(E.rows, E.rank)
        want = freevec_reduce_mod_z(preimage_rows(torsion, E.rows))
        term = kunneth_check(sat, i).tor_term
        if term.rank:
            assert term.rank == len(torsion)
            assert term.rows == want
        else:
            # decided zero with no colon: the reference term is zero too
            assert PresentedModule(n, QQ, E.side, len(torsion),
                                   want).is_zero()
    if is_minimal_dimension(PresentedModule(n, QQ, P.side, rank, reduced)):
        assert good_lattice(P).rows == _reference_good_lattice(P, rows)
    else:
        with pytest.raises(NotMinimalDimension):
            good_lattice(P)


Z12D = ("ring W(2) over QZ; module M = coker [[d1^2 - z*d2], "
        "[x1*d1 + 2*x2*d2 - 1/2]];")


def _standard(source):
    return Lattice(_avatar(source)).presentation()


@pytest.mark.parametrize("make", [
    *(lambda args=args: make_lattice(_seeded_presentation(*args))
      for args in SEEDED),
    lambda: make_lattice(IntegralPresentation(1, LEFT, 2, _mixed_torsion())),
    lambda: make_lattice(pres(A.d(1))),
    lambda: _standard(Z1), lambda: _standard(Z12), lambda: _standard(Z12D),
    lambda: make_lattice(pres(A.one())), lambda: make_lattice(pres(A.z())),
    lambda: _standard("ring W(1) over QZ; module M = coker [[x1, z]];")],
    ids=["n%d-rank%d-%d" % args for args in SEEDED] + [
        "mixed-torsion", "d1", "Z1", "Z12", "Z12d", "coker-1", "coker-z",
        "x1-z"])
def test_kunneth_matches_the_three_ext_reference(make):
    # terms decided by the grade or by z-free leads are not computed; the
    # check that computes every term gives the same flags and cycles.
    # coker [[x1, z]] has grade 0 and a Tor term W/(x1, z) at i = 0
    P = make()
    for i in range(P.n + 1):
        got, want = kunneth_check(P, i), kunneth_reference(P, i)
        assert [t.is_zero() for t in (got.ext_integral_reduced,
                                      got.ext_of_reduction, got.tor_term)] \
            == [t.is_zero() for t in (want.ext_integral_reduced,
                                      want.ext_of_reduction, want.tor_term)]
        assert got.cycles == want.cycles
        assert got.additivity_ok == want.additivity_ok
        assert got.zero_pattern_ok == want.zero_pattern_ok


def test_additivity_still_fails_within_one_dimension():
    # every cycle lies in dimension 2n - 1, and (x1) + 0 is not 2 (x1)
    W = WeylAlgebra(1, QQ)

    def coker(w):
        return PresentedModule.from_matrix(1, QQ, [[w]])

    rep = KunnethReport(0, coker(W.x(1)), coker(W.x(1) ** 2), coker(W.one()))
    assert rep.cycles["c"].is_zero()
    assert rep.additivity_ok is False


def _spied_kunneth(monkeypatch, source, i):
    """(ext calls as (index, ring), _colon call count) of one check."""
    P = _standard(source)
    exts, colons = [], []
    real_ext, real_colon = lattice.ext, lattice._colon

    def spy_ext(j, M):
        exts.append((j, M.ring))
        return real_ext(j, M)

    def spy_colon(rows):
        colons.append(1)
        return real_colon(rows)

    monkeypatch.setattr(lattice, "ext", spy_ext)
    monkeypatch.setattr(lattice, "_colon", spy_colon)
    kunneth_check(P, i)
    return exts, len(colons)


@pytest.mark.parametrize("source,exts,colons", [
    (Z12, [(2, ZP)], 0),
    (Z12D, [(2, ZP)], 1),
    (Z1, [(1, ZP), (1, QQ), (2, ZP)], 1)], ids=["Z12", "Z12d", "Z1"])
def test_kunneth_builds_only_undecided_terms(monkeypatch, source, exts,
                                             colons):
    # Z12 has grade 2: Ext^1 of M and of M/zM vanish, and Ext^2 has z-free
    # leads; a lead of Ext^2 of Z12d holds z; Z1 has grade 1 = i
    assert _spied_kunneth(monkeypatch, source, 1) == (exts, colons)


def _seeded_rows(n, rank, seed, times_z):
    """Kernel rows of three random ZP rows of W_n^rank, some times z."""
    rng = random.Random("colon/%d/%d/%d" % (n, rank, seed))
    W = WeylAlgebra(n, ZP)
    rows = [FreeVec.from_entries([rand_element(rng, W, deg=1, terms=2)
                                  for _ in range(rank)], rank=rank)
            for _ in range(3)]
    rows = [r.mul_left(W.z()) if times_z and rng.randint(0, 1) else r
            for r in rows]
    return _Rows.of(n, ZP, rank, [r for r in rows if r.terms])


def test_colon_of_a_basis_with_z_free_leads_is_the_basis():
    # the lemma behind the Tor shortcut: with every lead z-free, N : z = N
    seen = 0
    for n, rank, seed in [(n, rank, seed) for n in (1, 2)
                          for rank in (1, 2) for seed in range(6)]:
        rows = _seeded_rows(n, rank, seed, False)
        if not rows.rows:
            continue
        gb = groebner._gb(rows, bernstein_order(n))
        basis = gb._kernel(rows.layout)
        lay = basis.layout
        if any(lay.z_split(m)[1] for m in basis.leads):
            continue
        seen += 1
        colon = groebner._colon(rows)
        wide = max(lay, colon.layout, key=lambda lay: lay.width)
        assert {frozenset(r.items()) for r, _d in colon.on(wide)} == \
            {frozenset(wide.moved(r, lay).items()) for r in basis.rows}
    assert seen >= 6


def _unmarked(rows):
    return _Rows(rows.n, rows.ring, rows.rank, rows.layout, list(rows.rows))


@pytest.mark.parametrize("make", [
    *(lambda args=args: groebner._colon(_seeded_rows(*args, True))
      for args in SEEDED),
    lambda: groebner._colon(_Rows.of(1, ZP, 2, _mixed_torsion())),
    *(lambda source=source: _standard(source)._kernel
      for source in (Z1, Z12, Z12D))],
    ids=["colon-n%d-rank%d-%d" % args for args in SEEDED] + [
        "colon-mixed-torsion", "Z1", "Z12", "Z12d"])
def test_marked_rows_are_their_own_basis(make):
    # _colon and Lattice.presentation mark their rows as the reduced basis
    # under bernstein_order; _gb reads it off them, with no Buchberger run,
    # as Buchberger on an unmarked copy finds it
    rows = make()
    order = bernstein_order(rows.n)
    assert rows.reduced is order
    groebner.reset_counters()
    got = groebner._gb(rows, order)
    assert groebner.COUNTERS["buchberger_calls"] == 0
    want = groebner._gb(_unmarked(rows), order)
    assert groebner.COUNTERS["buchberger_calls"] == 1
    assert got.leads == want.leads
    assert got._basis.layout is want._basis.layout
    assert got._basis.rows == want._basis.rows
    assert got._basis.leads == want._basis.leads
    assert got.elements == want.elements
