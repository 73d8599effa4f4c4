"""Dimension, grade, Ext, duals and characteristic cycles."""

import random

import pytest

from weylmod import (INF, LEFT, QQ, QZ, RIGHT, CharCycle, NotMinimalDimension,
                     PresentedModule, UnsupportedAmbient, WeylAlgebra,
                     ZeroModule, char_cycle, dual_star, ext, grade, groebner,
                     hilbert_dimension, is_minimal_dimension,
                     quotient_presentation, submodule_presentation)

from helpers import rand_element

W = WeylAlgebra(1, QQ)
W2 = WeylAlgebra(2, QQ)


def module(*gens, n=1, ring=QQ, side=LEFT):
    return PresentedModule.from_matrix(n, ring, [[g] for g in gens],
                                       side=side)


def test_polynomial_module():
    M = module(W.d(1))
    assert hilbert_dimension(M) == 1
    assert grade(M) == 1
    assert is_minimal_dimension(M)
    assert char_cycle(M).as_dict() == {"(xi1)": 1}


def test_delta_module():
    M = module(W.x(1))
    assert hilbert_dimension(M) == 1
    assert char_cycle(M).as_dict() == {"(x1)": 1}
    assert is_minimal_dimension(M)


def test_theta_module_two_components():
    M = module(W.x(1) * W.d(1))
    assert char_cycle(M).as_dict() == {"(x1)": 1, "(xi1)": 1}
    assert char_cycle(M).total() == 2


def test_free_module_not_minimal():
    F = PresentedModule.from_matrix(1, QQ, [], rank=1)
    assert hilbert_dimension(F) == 2
    assert grade(F) == 0
    assert not is_minimal_dimension(F)
    with pytest.raises(NotMinimalDimension):
        dual_star(F)


def test_zero_module():
    Z = module(W.one())
    assert Z.is_zero()
    assert grade(Z) == INF
    assert not is_minimal_dimension(Z)
    with pytest.raises(ZeroModule):
        hilbert_dimension(Z)


def test_ext_pattern_for_holonomic():
    M = module(W.d(1) * W.d(1) - W.x(1))  # Airy
    assert ext(0, M).is_zero()
    E = ext(1, M)
    assert not E.is_zero()
    assert E.side == RIGHT


def test_dual_star_involution_on_cycles():
    for g in (W.d(1), W.x(1), W.x(1) * W.d(1) - W.scalar(3),
              W.d(1) * W.d(1) - W.x(1)):
        M = module(g)
        D = dual_star(M)
        assert D.side == RIGHT
        assert grade(D) == 1
        DD = dual_star(D)
        assert DD.side == LEFT
        assert char_cycle(DD) == char_cycle(M)


def test_cycle_additive_in_exact_sequences():
    # 0 -> sub -> M -> quot -> 0 built from a chosen element
    rng = random.Random(43)
    for _ in range(6):
        g = rand_element(rng, W, deg=3, terms=2)
        M = module(g)
        if M.is_zero() or not is_minimal_dimension(M):
            continue
        t = rand_element(rng, W, deg=2, terms=2)
        from weylmod import FreeVec
        extra = [FreeVec.from_entries([t], rank=1)]
        S = submodule_presentation(M, extra)
        Q = quotient_presentation(M, extra)
        parts = CharCycle()
        if not S.is_zero():
            parts = parts + char_cycle(S)
        if not Q.is_zero():
            parts = parts + char_cycle(Q)
        assert parts == char_cycle(M)


def test_presentation_independence():
    # same module, redundant presentation
    g = W.d(1) * W.d(1) - W.x(1)
    M = module(g)
    N = module(g, W.x(1) * g, W.d(1) * g)
    assert hilbert_dimension(M) == hilbert_dimension(N)
    assert grade(M) == grade(N)
    assert char_cycle(M) == char_cycle(N)


def test_right_module_support():
    M = module(W.d(1), side=RIGHT)
    assert M.side == RIGHT
    assert hilbert_dimension(M) == 1
    assert is_minimal_dimension(M)
    D = dual_star(M)
    assert D.side == LEFT


def test_qz_coefficients_supported():
    A = WeylAlgebra(1, QZ)
    M = module(A.z() * A.d(1) - A.one(), ring=QZ)
    assert is_minimal_dimension(M)
    assert char_cycle(M).as_dict() == {"(xi1)": 1}


def test_n2_product_module():
    M = PresentedModule.from_matrix(2, QQ, [[W2.d(1)], [W2.d(2)]])
    assert hilbert_dimension(M) == 2
    assert is_minimal_dimension(M)
    # the holonomicity test already built every Ext^i up to the grade
    calls = groebner.COUNTERS["buchberger_calls"]
    E = ext(2, M)
    assert ext(2, M) is E
    assert grade(M) == 2
    assert dual_star(M) is E
    assert not E.is_zero()
    assert groebner.COUNTERS["buchberger_calls"] == calls


def test_ext_out_of_range_rejected():
    from weylmod import IndexOutOfRange
    M = module(W.d(1))
    assert ext(1, M).side == RIGHT
    with pytest.raises(IndexOutOfRange):
        ext(-1, M)
    with pytest.raises(IndexOutOfRange):
        ext(5, M)
