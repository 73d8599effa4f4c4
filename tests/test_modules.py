"""Dimension, grade, Ext, duals and characteristic cycles."""

import hashlib
import random
from fractions import Fraction

import pytest

from weylmod import (INF, LEFT, QQ, QZ, RIGHT, ZP, CharCycle,
                     IntegralPresentation, NotMinimalDimension,
                     PresentedModule, UnsupportedAmbient, WeylAlgebra,
                     ZeroModule, char_cycle, dual_star, ext, free_resolution,
                     grade, groebner, hilbert_dimension, is_minimal_dimension,
                     make_lattice, quotient_presentation, saturate_z,
                     submodule_presentation, to_str)
from weylmod.parser import parse

from helpers import rand_element
from oracles import ext_grade

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


@pytest.mark.parametrize("ring", [QQ, ZP], ids=["QQ", "ZP"])
@pytest.mark.parametrize("rows,zero", [
    ([[1, 1]], False), ([[1, 1], [0, 1]], True)], ids=["one-unit", "both"])
def test_is_zero_reads_the_leads(monkeypatch, ring, rows, zero):
    A = WeylAlgebra(1, ring)
    M = PresentedModule.from_matrix(
        1, ring, [[A.scalar(Fraction(c)) for c in row] for row in rows])
    gb = M.gb()
    units = [(0, (0,), (0,), 0), (1, (0,), (0,), 0)]
    # coker [[1, 1]]: component 0 has a unit lead, component 1 has none
    assert [m in units for m, _c in gb.leads].count(True) == 1 + zero
    normal_forms = []

    def spy(*args, **kwargs):
        normal_forms.append(1)

    monkeypatch.setattr(groebner, "_reduce", spy)
    monkeypatch.setattr(groebner, "left_normal_form", spy)
    assert M.is_zero() is zero
    assert gb.is_full_module() is zero
    assert not normal_forms


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
    M.gb()
    # dimension, holonomicity and grade all read the module's own basis
    calls = groebner.COUNTERS["buchberger_calls"]
    assert hilbert_dimension(M) == 2
    assert is_minimal_dimension(M)
    assert grade(M) == 2
    assert groebner.COUNTERS["buchberger_calls"] == calls
    E = ext(2, M)
    assert ext(2, M) is E
    assert dual_star(M) is E
    assert not E.is_zero()


def test_holonomicity_resolves_no_ext():
    M = _gkz13()
    assert is_minimal_dimension(M)
    assert (grade(M), hilbert_dimension(M)) == (2, 2)
    assert M._res is None and M._ext == {}


def test_dual_builds_only_ext_n():
    M = _gkz13()
    dual_star(M)
    assert set(M._ext) == {2}


def test_grade_without_ext_raises_over_zp(monkeypatch):
    from weylmod import InternalInvariant, modules
    M = module(WeylAlgebra(1, ZP).d(1), ring=ZP)

    def zero_ext(i, M):
        return PresentedModule(M.n, M.ring, M.opposite_side(), 0, [])
    monkeypatch.setattr(modules, "ext", zero_ext)
    with pytest.raises(InternalInvariant, match="no Ext"):
        grade(M)


# GKZ systems on W_2: A = [a b] -> its toric operator, and the betas of
# the benchmark's gkz-resolution ladder, none of them resonant
GKZ2 = {(1, 2): "d1^2 - d2", (1, 3): "d1^3 - d2", (1, 4): "d1^4 - d2",
        (2, 3): "d1^3 - d2^2"}
BETA = ("1/2", "1/3", "-2/3", "3/4")


def _session_module(source):
    s = parse(source)
    return PresentedModule.from_matrix(s.n, s.ring, s.modules["M"])


def _gkz(a, b, beta, ring="QQ"):
    return _session_module(
        "ring W(2) over %s; module M = coker [[%s], [%d*x1*d1 + %d*x2*d2 "
        "- %s%s]];" % (ring, GKZ2[a, b], a, b, beta,
                       " - z" if ring == "QZ" else ""))


def _random_modules(n, seed, count):
    rng = random.Random(seed)
    A = WeylAlgebra(n, QQ)
    for _ in range(count):
        gens = [rand_element(rng, A, deg=2, terms=2)
                for _ in range(rng.randint(1, 2))]
        yield PresentedModule.from_matrix(n, QQ, [[g] for g in gens])


def _grade_corpus():
    for (a, b) in GKZ2:
        for beta in BETA:
            yield "gkz[%d %d] %s" % (a, b, beta), _gkz(a, b, beta)
    yield "coker d1 d2", _session_module(
        "ring W(2) over QQ; module M = coker [[d1], [d2]];")
    yield "free", PresentedModule.from_matrix(1, QQ, [], rank=1)
    yield "rank 2", _session_module(
        "ring W(1) over QQ; module M = coker [[x1*d1, d1], [d1^2, x1]];")
    yield "right", module(W.x(1) * W.d(1) - W.scalar(3), side=RIGHT)
    yield "Z12", _gkz(1, 2, "1/2", ring="QZ")
    for n, seed in ((1, 83), (2, 89)):
        for k, M in enumerate(_random_modules(n, seed, 8)):
            yield "random W_%d #%d" % (n, k), M


def test_grade_is_2n_minus_dimension():
    """Auslander regularity: the Ext definition of the grade agrees."""
    nonzero = 0
    for name, M in _grade_corpus():
        j = ext_grade(M)
        assert grade(M) == j, name
        if M.is_zero():
            assert j == INF, name
            continue
        nonzero += 1
        assert j + hilbert_dimension(M) == 2 * M.n, name
    assert nonzero >= 30


def test_ext_out_of_range_rejected():
    from weylmod import IndexOutOfRange
    M = module(W.d(1))
    assert ext(1, M).side == RIGHT
    with pytest.raises(IndexOutOfRange):
        ext(-1, M)
    with pytest.raises(IndexOutOfRange):
        ext(5, M)


def _gkz13():
    """GKZ A = [1 3], beta = 1/2 on W_2."""
    return _gkz(1, 3, "1/2")


def _z1_avatar():
    """The ZP avatar of coker [[x1*d1 - 1/2 - z]], as good_lattice takes it."""
    A = WeylAlgebra(1, QZ)
    P = IntegralPresentation.from_qz_matrix(
        1, [[A.x(1) * A.d(1) - A.scalar(Fraction(1, 2)) - A.z()]])
    return make_lattice(P).module()


def _z1_integral_dual():
    """The saturated integral Ext^1 that good_lattice dualizes again."""
    E = ext(1, _z1_avatar())
    return PresentedModule(1, ZP, E.side, E.rank, saturate_z(E.rows, E.rank))


def _ext_digest(E):
    rows = [[to_str(w) for w in r.entries()] for r in E.rows]
    return hashlib.sha256(repr((E.side, E.rank, rows)).encode()).hexdigest()


# sha256 of (side, rank, printed rows) of Ext^0, Ext^1, Ext^2, recorded
# when every module was resolved eagerly one stage past its global
# dimension: resolving on demand must present the same modules.
EXT_PINS = [
    (_gkz13, ["41c220af451323c70b398a0aa8f8dd5d279c0e09c9ce24eb9ed8e862aaafc409",
              "6a695420e0742de3d6c8e993ac129cc9dec84df55104f44584143c05897fa29b",
              "5ab17ceca2bf6888ce534bb7d0b3288be6512ea70443a386736e97e75ab9afd1"]),
    (_z1_avatar,
     ["41c220af451323c70b398a0aa8f8dd5d279c0e09c9ce24eb9ed8e862aaafc409",
      "bb1b7fbd8668091137b5ca7fd9da7f18e5853018842b99e50bc3b2c04cbdc6d0",
      "41c220af451323c70b398a0aa8f8dd5d279c0e09c9ce24eb9ed8e862aaafc409"]),
    (_z1_integral_dual,
     ["874643ef6b34e8bcf0cd564105f6e02013c9362907b18966dfed1278edf20db2",
      "78e08514d2927b299295a613609982d6fdd7f4f17a2f96442185167ea231f765",
      "874643ef6b34e8bcf0cd564105f6e02013c9362907b18966dfed1278edf20db2"]),
]


@pytest.mark.parametrize("make,digests", EXT_PINS,
                         ids=["gkz13", "z1", "z1-dual"])
@pytest.mark.parametrize("descending", [False, True],
                         ids=["ascending", "descending"])
def test_ext_presentations_pinned(make, digests, descending):
    M = make()
    stages = range(len(digests))
    got = {i: _ext_digest(ext(i, M))
           for i in (reversed(stages) if descending else stages)}
    assert [got[i] for i in stages] == digests


def _syz_inputs(monkeypatch):
    """Log the generator list of every syz_of_list call from groebner."""
    calls = []
    real = groebner.syz_of_list

    def spy(gens):
        calls.append(tuple(gens))
        return real(gens)
    monkeypatch.setattr(groebner, "syz_of_list", spy)
    return calls


def test_ext_resolves_only_the_stages_it_reads(monkeypatch):
    M = _gkz13()
    stage1 = tuple(free_resolution(M.rows, M.rank, 1).matrices[1])
    assert stage1
    calls = _syz_inputs(monkeypatch)
    ext(1, M)
    assert calls.count(tuple(M.rows)) == 1  # stage 1, resolved once
    assert stage1 not in calls              # stage 2 is never resolved


@pytest.mark.parametrize("ring,resolved", [(QQ, [0, 1]), (ZP, [0, 1, 1])])
def test_ext_resolves_each_stage_once(monkeypatch, ring, resolved):
    M = module(WeylAlgebra(1, ring).d(1), ring=ring)
    # d1 has no syzygies: the resolution ends in a zero kernel at stage 1
    assert len(free_resolution(M.rows, M.rank, 3).matrices) == 1
    calls = _syz_inputs(monkeypatch)
    seen = []
    for i in range(len(resolved)):
        ext(i, M)
        seen.append(calls.count(tuple(M.rows)))
    assert seen == resolved
