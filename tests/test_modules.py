"""Dimension, grade, Ext, duals and characteristic cycles."""

import hashlib
import random
from fractions import Fraction

import pytest

from weylmod import (H1, INF, LEFT, QQ, QZ, RIGHT, ZP, CharCycle, FreeVec,
                     IntegralPresentation, NotMinimalDimension,
                     PresentedModule, UnsupportedAmbient, WeylAlgebra,
                     ZeroModule, char_cycle, dual_star, ext, free_resolution,
                     grade, groebner, hilbert_dimension, is_minimal_dimension,
                     make_lattice, quotient_presentation, saturate_z,
                     submodule_presentation, to_str)
from weylmod import modules
from weylmod.modules import homological_bound
from weylmod.parser import parse

from helpers import inhomogeneous_h1, is_h_homogeneous, rand_element
from oracles import ext_grade, leibniz_combination, leibniz_transpose

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


@pytest.mark.parametrize("ring", [QQ, ZP], ids=["QQ", "ZP"])
def test_module_without_relations_keeps_its_ambient(ring):
    # coker [[0, 0]] on W(2) is the free module of rank 2
    A = WeylAlgebra(2, ring)
    M = PresentedModule.from_matrix(2, ring, [[A.zero(), A.zero()]])
    assert (M.n, M.ring, M.rank, M.rows) == (2, ring, 2, [])
    gb = M.gb()
    assert (gb.n, gb.ring, gb.rank) == (2, ring, 2)
    assert gb.elements == []
    assert not M.is_zero()


def test_rank_zero_module_is_zero():
    M = PresentedModule(2, QQ, LEFT, 0, [])
    assert M.gb().rank == 0
    assert M.is_zero()


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


def test_sub_and_quotient_clear_only_the_new_rows(monkeypatch):
    # the relations of M enter the kernel once, when M is built; the
    # submodule and the quotient clear only the rows they are given
    M = module(W.d(1) ** 2)
    of, counts = groebner._Rows.of, []

    def spy(n, ring, rank, vecs):
        counts.append(len(vecs))
        return of(n, ring, rank, vecs)
    monkeypatch.setattr(groebner._Rows, "of", staticmethod(spy))
    S = submodule_presentation(M, [FreeVec.from_entries([W.d(1)])])
    assert counts == [1]
    assert [[to_str(w) for w in r.entries()] for r in S.rows] == [["-d1"]]
    counts.clear()
    Q = quotient_presentation(M, [FreeVec.from_entries([W.x(1)])])
    assert counts == [1]
    assert [[to_str(w) for w in r.entries()] for r in Q.rows] == \
        [["d1^2"], ["x1"]]


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


def _random_modules(n, seed, count, ring=QQ):
    rng = random.Random(seed)
    A = WeylAlgebra(n, ring)
    for _ in range(count):
        gens = [rand_element(rng, A, deg=2, terms=2)
                for _ in range(rng.randint(1, 2))]
        yield PresentedModule.from_matrix(n, ring, [[g] for g in gens])


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
    for n, seed in ((1, 97), (2, 101)):
        for k, M in enumerate(_random_modules(n, seed, 12, ZP)):
            yield "random W_%d over Q[z] #%d" % (n, k), M


def test_grade_is_2n_minus_dimension():
    """Auslander regularity: the Ext definition of the grade agrees.

    Over Q[z], grade reads 2n + 1 minus a dimension that counts z.
    """
    nonzero = 0
    for name, M in _grade_corpus():
        j = ext_grade(M)
        assert grade(M) == j, name
        if M.is_zero():
            assert j == INF, name
            continue
        nonzero += 1
        if M.ring != ZP:
            assert j + hilbert_dimension(M) == 2 * M.n, name
    assert nonzero >= 51


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
    """Log the generator list of every syzygy computation from groebner.

    Resolution stages pass as kernel rows to groebner._syz, the one
    implementation behind syz_of_list; each input is logged as FreeVecs.
    """
    calls = []
    real = groebner._syz

    def spy(gens):
        calls.append(tuple(gens.vecs()))
        return real(gens)
    monkeypatch.setattr(groebner, "_syz", spy)
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


@pytest.mark.parametrize("make", [_gkz13, _z1_avatar],
                         ids=["gkz13", "z1"])
def test_ext_dualizes_each_stage_once(monkeypatch, make):
    # Ext^i reads the tau-duals of stages i - 1 and i, so Ext^i and
    # Ext^(i+1) share that of stage i
    M = make()
    dualized = []
    real = groebner._Rows.tau_dual

    def spy(rows):
        dualized.append(id(rows))
        return real(rows)

    monkeypatch.setattr(groebner._Rows, "tau_dual", spy)
    for i in range(homological_bound(M.n, M.ring) + 1):
        ext(i, M)
    assert dualized and len(dualized) == len(set(dualized))


def _seeded_modules(ring, n, count):
    rng = random.Random("stages/%s/%d" % (ring, n))
    A = WeylAlgebra(n, ring)
    for _ in range(count):
        rank = rng.randint(1, 2)
        yield PresentedModule.from_matrix(n, ring, [
            [rand_element(rng, A, deg=2, terms=2) for _ in range(rank)]
            for _ in range(rng.randint(1, 2))])


def _perturbed(v, comps):
    """v with the coefficient of its first term in comps doubled."""
    terms = dict(v.terms)
    key = min(k for k in terms if k[0] in comps)
    terms[key] = terms[key] * 2
    return FreeVec(v.n, v.ring, v.rank, terms)


def _oracle_tau_dual(rows, source_rank):
    """C[j][i] = tau(A[i][j]), each entry by oracles.leibniz_transpose."""
    out = [{} for _ in range(source_rank)]
    for i, row in enumerate(rows):
        for (j, a, b, e), c in leibniz_transpose(row.terms).items():
            out[j][(i, a, b, e)] = c
    return [FreeVec(row.n, row.ring, len(rows), t) for t in out]


STAGE_RINGS = [(QQ, 1), (ZP, 1), (QZ, 1), (QQ, 2), (ZP, 2), (QZ, 2)]


@pytest.mark.parametrize("ring,n", STAGE_RINGS,
                         ids=["%s%d" % p for p in STAGE_RINGS])
def test_stage_maps_compose_to_zero(monkeypatch, ring, n):
    # every product is taken by the Leibniz oracle, which shares no code
    # with the packed product loop; a doubled coefficient must show
    kernels = []
    real = modules._syz

    def spy(gens):
        out = real(gens)
        kernels.append((gens.vecs(), out.vecs()))
        return out
    monkeypatch.setattr(modules, "_syz", spy)
    composed = killed = 0
    for M in _seeded_modules(ring, n, 6):
        bound = homological_bound(n, ring)
        res = M.resolution(bound + 1)
        for step, nxt in zip(res.matrices, res.matrices[1:]):
            for s in nxt:
                assert not leibniz_combination(s, step)
                assert leibniz_combination(_perturbed(s, range(len(step))),
                                           step)
                composed += 1
        for i in range(bound + 1):
            del kernels[:]
            ext(i, M)
            if i >= len(res.matrices):
                continue
            dual = _oracle_tau_dual(res.matrices[i], res.ranks[i])
            for out, kernel in kernels:
                assert out == dual
                live = [j for j, row in enumerate(dual) if row]
                for k in kernel:
                    assert not leibniz_combination(k, dual)
                    if any(key[0] in live for key in k.terms):
                        assert leibniz_combination(_perturbed(k, live), dual)
                    killed += 1
    assert composed and killed


def _h1_rows_of_two_degrees():
    # rows of degree 3 and 4: the dual stage map is homogeneous only with
    # its components counted -3 and -4
    H = WeylAlgebra(1, H1)
    h, x, d = H.h(), H.x(1), H.d(1)
    return PresentedModule.from_matrix(1, H1, [
        [h ** 2 * d, -5 * h * x ** 2 - h * x * d],
        [-2 * h ** 2 * d ** 2,
         -9 * h ** 2 * x * d + Fraction(3, 2) * h ** 3 * x]])


def test_h1_ext_of_rows_of_different_degrees():
    M = _h1_rows_of_two_degrees()
    assert [ext(i, M).is_zero() for i in range(4)] == \
        [True, False, True, True]
    assert grade(M) == ext_grade(M) == 1


def test_h1_ext_of_an_ext_module():
    # Ext^1(M) keeps the kernel rows it was computed as, of different
    # degrees, and its resolution starts from them; bernstein_order is
    # graded, so no stage needs to be homogeneous
    E = ext(1, _h1_rows_of_two_degrees())
    assert [ext(j, E).is_zero() for j in range(4)] == \
        [True, False, True, True]
    assert grade(E) == ext_grade(E) == 1


@pytest.mark.parametrize("n,ring", [(2, QZ), (1, H1)])
def test_no_relations_resolve_in_their_own_ambient(n, ring):
    res = PresentedModule(n, ring, LEFT, 2, []).resolution(3)
    stage = res.stages[0]
    assert (stage.n, stage.ring, stage.rank) == (n, ring, 2)
    assert res.ranks == [2, 0] and res.complete


def _homogenized(u, degree):
    """u with each term z^e x^a d^b given h^(degree - |a| - |b|)."""
    H = WeylAlgebra(u.n, H1)
    return sum((H.monomial(a, b, degree - sum(a) - sum(b), c)
                for (a, b, _e), c in u.terms.items()), H.zero())


def test_h1_grade_is_the_ext_grade():
    """H1 is graded of global dimension 3: grade + dimension = 3.

    Each row is homogeneous of a degree of its own, so every stage after
    the first, and every dual stage, has components of different degrees.
    """
    rng = random.Random("h1-grade")
    H = WeylAlgebra(1, H1)
    grades, mixed = set(), 0
    for _ in range(40):
        rank = rng.randint(1, 2)
        degrees = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        mixed += len(set(degrees)) > 1
        M = PresentedModule.from_matrix(1, H1, [
            [_homogenized(rand_element(rng, H, deg=deg, terms=3), deg)
             for _ in range(rank)] for deg in degrees])
        grades.add(grade(M))
        assert grade(M) == ext_grade(M)
    assert grades >= {0, 1, 2, 3} and mixed >= 5


def test_h1_grade_of_inhomogeneous_rows():
    # bernstein_order is graded, so the basis and the resolution of rows
    # whose terms have h-degrees of their own need no homogeneity
    rng = random.Random("h1-inhomogeneous/bernstein")
    mixed = 0
    for k in range(20):
        rows = inhomogeneous_h1(rng, 1 + k % 2)
        mixed += not all(map(is_h_homogeneous, rows))
        M = PresentedModule(1, H1, LEFT, rows[0].rank, rows)
        assert grade(M) == ext_grade(M)
    assert mixed >= 15
