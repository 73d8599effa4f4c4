"""Integral presentations, saturation, reduction and lattice comparison."""

from fractions import Fraction

import pytest

from weylmod import (LEFT, QQ, QZ, ZP, FreeVec, IntegralPresentation,
                     Lattice, NonIntegral, NotSameModule, NotSaturated,
                     PresentedModule, QPoly, RankMismatch, RatFunc,
                     WeylAlgebra, bernstein_order, buchberger,
                     char_cycle, compare_lattices, good_lattice, groebner,
                     kunneth_check, left_normal_form, make_lattice,
                     minimal_dimension_via_reduction, parse,
                     preimage_rows, reduce_mod_z)

from helpers import battery_avatars, free_avatar

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


def test_reduce_requires_saturation():
    P = pres(A.z() * A.d(1))
    with pytest.raises(NotSaturated):
        reduce_mod_z(P)


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


def _avatar(source):
    s = parse(source)
    return make_lattice(IntegralPresentation.from_qz_matrix(
        s.n, s.modules["M"]))


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
