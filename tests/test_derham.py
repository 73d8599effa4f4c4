"""De Rham cohomology in one variable and the reduction transfer.

Expected dimensions were frozen after hand derivations and are
re-checked here against the independent truncation oracle, which shares
no code path with the window algorithm.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from weylmod import (LEFT, QQ, QZ, RIGHT, DeRhamComplex, IndexOutOfRange,
                     NonIntegral, NotAComplex, NotHolonomic,
                     PerfectComplexOverDVR, PresentedModule, QPoly, RatFunc,
                     RightModule, UnsupportedAmbient, WeylAlgebra, XPoly,
                     b_function_along_x, chi_via_reduction, dr_complex,
                     euler_check_perfect, h_dr_n1, stabilization_oracle)

from helpers import battery_avatars, rand_element

W = WeylAlgebra(1, QQ)
X, D = W.x(1), W.d(1)


def module(*gens, n=1, side=LEFT):
    Wn = WeylAlgebra(n, QQ)
    return PresentedModule.from_matrix(n, QQ, [[g] for g in gens],
                                       side=side)


# dims (h0, h1) frozen from hand computation; each case is re-checked
# against the truncation oracle below
CASES = [
    ("polynomials", [D], (1, 0)),
    ("delta", [X], (0, 1)),
    ("exponential", [D - W.one()], (0, 0)),
    ("kummer-half", [X * D - W.scalar(Fraction(1, 2))], (0, 0)),
    ("theta", [X * D], (0, 0)),
    ("theta-shift", [X * D - W.scalar(3)], (0, 0)),
    ("theta-tail", [X * D - X], (0, 1)),
    ("theta-plus-one", [X * D + W.one()], (1, 1)),
    ("airy", [D * D - X], (0, 1)),
    ("irregular", [X * X * D + W.one()], (0, 1)),
    ("product", [D * X * D], (1, 0)),
]


@pytest.mark.parametrize("name,gens,dims", CASES, ids=[c[0] for c in CASES])
def test_h_dr_window_algorithm(name, gens, dims):
    rep = h_dr_n1(module(*gens))
    assert rep.dims == dims
    assert rep.chi == dims[0] - dims[1]
    assert rep.provenance == "DirectN1"


@pytest.mark.parametrize("name,gens,dims", CASES, ids=[c[0] for c in CASES])
def test_truncation_oracle_agrees(name, gens, dims):
    oracle = stabilization_oracle(module(*gens), window=5, max_degree=40)
    assert oracle["stabilized"], name
    assert tuple(oracle["dims"]) == dims


def theta_product(*roots):
    out = W.one()
    for r in roots:
        out = out * (X * D - W.scalar(r))
    return out


# (name, relation matrix, oracle options, (dims, stabilized, degree), agrees
# with h_dr_n1), recorded before the oracle grew its spans incrementally.
# The first three are the known defect: the window-5 oracle settles early
# on an answer other than the window algorithm's (1, 1).
ORACLE_PINS = [
    ("defect-5-6", [[theta_product(5, -6)]], {}, ((0, 0), True, 4), False),
    ("defect-6-7", [[theta_product(6, -7)]], {}, ((0, 0), True, 4), False),
    ("defect-1-2-3", [[theta_product(1, 2, -3)]], {}, ((0, 1), True, 6),
     False),
    ("unstable", [[theta_product(2, -1, -5)]], {"max_degree": 12},
     ((2, 2), False, 12), False),
    ("rank-two", [[theta_product(1, -2), X], [W.zero(), theta_product(3, -4)]],
     {}, ((2, 2), True, 10), True),
    ("window-3", [[theta_product(4, -1, -5)]], {"window": 3},
     ((0, 3), True, 4), False),
]

# The (x1*d1-k)(x1*d1+k+1) family, whose window answer is (1, 1) for every
# k: (k, window, (dims, stabilized, degree), agrees), recorded before the
# oracle moved to integer rows.  Each window settles early on (0, 0) once
# k reaches it.
FAMILY_PINS = [
    (1, 5, ((1, 1), True, 8), True), (1, 12, ((1, 1), True, 15), True),
    (2, 5, ((1, 1), True, 9), True), (2, 12, ((1, 1), True, 16), True),
    (3, 5, ((1, 1), True, 10), True), (3, 12, ((1, 1), True, 17), True),
    (4, 5, ((1, 1), True, 11), True), (4, 12, ((1, 1), True, 18), True),
    (5, 5, ((0, 0), True, 4), False), (5, 12, ((1, 1), True, 19), True),
    (6, 5, ((0, 0), True, 4), False), (6, 12, ((1, 1), True, 20), True),
    (7, 5, ((0, 0), True, 4), False), (7, 12, ((1, 1), True, 21), True),
    (8, 5, ((0, 0), True, 4), False), (8, 12, ((1, 1), True, 22), True),
    (9, 5, ((0, 0), True, 4), False), (9, 12, ((1, 1), True, 23), True),
    (10, 5, ((0, 0), True, 4), False), (10, 12, ((1, 1), True, 24), True),
    (11, 5, ((0, 0), True, 4), False), (11, 12, ((1, 1), True, 25), True),
    (12, 5, ((0, 0), True, 4), False), (12, 12, ((0, 0), True, 11), False),
]
ORACLE_PINS += [("family-%d-w%d" % (k, window),
                 [[theta_product(k, -k - 1)]], {"window": window}, pinned,
                 agrees)
                for k, window, pinned, agrees in FAMILY_PINS]


@pytest.mark.parametrize("name,rows,opts,pinned,agrees", ORACLE_PINS,
                         ids=[p[0] for p in ORACLE_PINS])
def test_oracle_pinned(name, rows, opts, pinned, agrees):
    M = PresentedModule.from_matrix(1, QQ, rows)
    oracle = stabilization_oracle(M, **opts)
    assert (tuple(oracle["dims"]), oracle["stabilized"],
            oracle["degree"]) == pinned
    window = h_dr_n1(M).dims
    assert (oracle["stabilized"] and tuple(oracle["dims"]) == window) \
        == agrees


@pytest.mark.parametrize("opts", [{"window": 0}, {"window": -1},
                                  {"pad": -1}, {"max_degree": -1}],
                         ids=["window-0", "window-negative", "pad-negative",
                              "max-degree-negative"])
def test_oracle_rejects_out_of_range(opts):
    # window 0 used to "stabilize" at degree 0 on (0, 1), and a negative
    # pad raised a bare ValueError
    with pytest.raises(IndexOutOfRange):
        stabilization_oracle(module(theta_product(1, -2)), **opts)


def test_b_function_conventions():
    b = b_function_along_x(module(D))
    assert b.poly.to_str("s") == "s"
    assert b.integer_roots == [0] or b.integer_roots == {0} or \
        list(b.integer_roots) == [0]
    b = b_function_along_x(module(X))
    assert b.poly.to_str("s") == "s + 1"
    assert list(b.integer_roots) == [-1]
    b = b_function_along_x(module(X * D - W.scalar(Fraction(1, 2))))
    assert b.poly.to_str("s") == "s - 1/2"
    assert not list(b.integer_roots)


def test_rank_two_cases():
    # direct sum of polynomials and delta
    M = PresentedModule.from_matrix(1, QQ, [[D, W.zero()], [W.zero(), X]])
    rep = h_dr_n1(M)
    assert rep.dims == (1, 1)
    # extension presenting W/W d^2
    N = PresentedModule.from_matrix(1, QQ, [[D, W.one()], [W.zero(), D]])
    assert h_dr_n1(N).dims == (2, 0)
    oracle = stabilization_oracle(N)
    assert tuple(oracle["dims"]) == (2, 0)


def test_free_module_rejected():
    F = PresentedModule.from_matrix(1, QQ, [], rank=1)
    with pytest.raises(NotHolonomic):
        h_dr_n1(F)


def test_right_module_rejected():
    M = module(D, side=RIGHT)
    with pytest.raises(RightModule):
        h_dr_n1(M)


def test_two_variables_rejected():
    W2 = WeylAlgebra(2, QQ)
    M = PresentedModule.from_matrix(2, QQ, [[W2.d(1)], [W2.d(2)]])
    with pytest.raises(UnsupportedAmbient):
        h_dr_n1(M)


def test_chi_via_reduction_battery():
    for name, P, chi in battery_avatars():
        rep = chi_via_reduction(P)
        assert rep.chi == chi, name
        assert rep.provenance == "Transfer"
        assert rep.dims is None
        assert rep.details.provenance == "ViaReduction"
        assert rep.details.chi == chi


def test_chi_of_zero_completed_module():
    from weylmod import IntegralPresentation
    A = WeylAlgebra(1, QZ)
    P = IntegralPresentation.from_qz_matrix(
        1, [[A.z() * A.d(1) - A.one()]])
    rep = chi_via_reduction(P)
    assert rep.chi == 0 and rep.dims == (0, 0)


# --- the Koszul-type complex in several variables

def test_dr_complex_multiplicities():
    for n in (1, 2, 3):
        Wn = WeylAlgebra(n, QQ)
        M = PresentedModule.from_matrix(n, QQ, [[Wn.d(i)]
                                                for i in range(1, n + 1)])
        C = dr_complex(M)
        for s in range(n + 1):
            assert C.rank_at(s) == comb(n, s)


def test_dr_complex_d_squared_zero():
    rng = random.Random(47)
    W2 = WeylAlgebra(2, QQ)
    M = PresentedModule.from_matrix(2, QQ, [[W2.d(1)], [W2.d(2)]])
    C = dr_complex(M)
    for _ in range(10):
        f = XPoly.monomial(2, QQ, (rng.randint(0, 3), rng.randint(0, 3)),
                           coeff=Fraction(rng.randint(1, 9)))
        first = C.apply_to_polynomials(0, {(): f})
        second = C.apply_to_polynomials(1, first)
        assert all(v.is_zero() for v in second.values())


def test_dr_complex_signs():
    W2 = WeylAlgebra(2, QQ)
    M = PresentedModule.from_matrix(2, QQ, [], rank=1)
    C = dr_complex(M)
    entries = C.differential_entries(1)
    assert entries[((1, 2), (1,))] == -W2.d(2)
    assert entries[((1, 2), (2,))] == W2.d(1)


# --- perfect complexes over the valuation ring

def c(x):
    return QPoly.const(Fraction(x))


def zpoly(*coeffs):
    return QPoly(tuple(Fraction(v) for v in coeffs))


def test_euler_check_example():
    # 0 -> R -> R^2 -> R -> 0 with exact generic fiber
    C = PerfectComplexOverDVR(
        [1, 2, 1],
        [[[zpoly(0, 1), zpoly(1, -1)]],
         [[zpoly(1, -1)], [zpoly(0, -1)]]])
    rep = euler_check_perfect(C)
    assert rep["equal"]
    assert rep["chi_generic"] == rep["chi_special"] == 0
    assert rep["dims_generic"] == [0, 0, 0]
    assert rep["dims_special"] == [0, 0, 0]


def test_euler_check_jump_in_dims():
    # multiplication by z: dims jump but chi cannot
    C = PerfectComplexOverDVR([1, 1], [[[zpoly(0, 1)]]])
    rep = euler_check_perfect(C)
    assert rep["equal"]
    assert rep["dims_generic"] == [0, 0]
    assert rep["dims_special"] == [1, 1]


def test_non_integral_entry_rejected():
    with pytest.raises(NonIntegral):
        PerfectComplexOverDVR(
            [1, 1], [[[RatFunc(QPoly.const(Fraction(1)), zpoly(0, 1))]]])


def test_not_a_complex_rejected():
    C = PerfectComplexOverDVR(
        [1, 1, 1], [[[zpoly(1)]], [[zpoly(1)]]])
    with pytest.raises(NotAComplex):
        euler_check_perfect(C)


def test_random_perfect_complexes_transfer():
    from helpers import random_perfect_complex
    rng = random.Random(53)
    for _ in range(30):
        rep = euler_check_perfect(random_perfect_complex(rng))
        assert rep["equal"]
