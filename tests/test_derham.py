"""De Rham cohomology in one variable and the reduction transfer.

Expected dimensions were frozen after hand derivations and are
re-checked here against the independent truncation oracle, which shares
no code path with the window algorithm.
"""

import random
import time
from fractions import Fraction
from math import comb, lcm, perm

import pytest

from weylmod import (LEFT, QQ, QZ, RIGHT, DeRhamComplex, IndexOutOfRange,
                     NonIntegral, NotAComplex, NotHolonomic,
                     PerfectComplexOverDVR, PresentedModule, QPoly, RatFunc,
                     RightModule, UnsupportedAmbient, WeylAlgebra, XPoly,
                     b_function_along_x, chi_via_reduction, dr_complex,
                     euler_check_perfect, h_dr_n1, normal_product,
                     stabilization_oracle)
from weylmod.cli import run
from weylmod.derham import (_d_times, _integer_roots, _mod_d, _theta_image,
                            _v_lifts, _x_times)

from helpers import battery_avatars, rand_element
from oracles import (derivative_row_oracle, field_indicial_polynomial,
                     leibniz_product)

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
    # the window reduction of these cuts tails of weight below the
    # smallest integer root; dims recorded from the window algorithm
    ("d3-plus-d", [D ** 3 + D], (1, 0)),
    ("x-d3-plus-x-d2", [X * D ** 3 + X * D ** 2], (1, 0)),
    ("three-roots", [X ** 3 * D ** 2 + W.scalar(3) * X ** 2 * D
                     + W.scalar(2) * D ** 2], (1, 2)),
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
# window 8, recorded while the oracle still kept d1 F as rows
FAMILY_PINS += [(k, 8, ((1, 1), True, 10 + k), True) for k in range(1, 8)]
FAMILY_PINS += [(k, 8, ((0, 0), True, 7), False) for k in range(8, 13)]
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


def test_quotient_by_d1_in_closed_form():
    # x^a d^b = d1 h + (-1)^b a!/(a-b)! x^(a-b) for the h below, the
    # second term zero when b > a: that is x^a d^b modulo d1 W, and
    # _mod_d maps the term to it
    for a in range(9):
        for b in range(9):
            h = {((a - k,), (b - 1 - k,), 0): (-1) ** k * perm(a, k)
                 for k in range(min(a, b - 1) + 1)}
            image = {(a - b, 0): (-1) ** b * perm(a, b)} if b <= a else {}
            total = leibniz_product({((0,), (1,), 0): 1}, h)
            for (x, _comp), c in image.items():
                key = ((x,), (0,), 0)
                total[key] = total.get(key, 0) + c
            assert {k: c for k, c in total.items() if c} == {
                ((a,), (b,), 0): 1}
            assert _mod_d({(a + b, 0, a): 1}) == image


def _random_module(rng, rank):
    # right factors D, X and X D + 1 give the module kernels and
    # cokernels the oracle has to find
    factors = [W.one(), D, X, X * D + W.one()]
    rows = [[rand_element(rng, W, deg=2, terms=3) * rng.choice(factors)
             for _ in range(rank)] for _ in range(rng.randint(1, rank))]
    return PresentedModule.from_matrix(1, QQ, rows)


@pytest.mark.parametrize("seed", range(24))
def test_oracle_matches_derivative_rows(seed):
    # the oracle reads N + d1 F modulo d1 W from the rows x^i g alone; the
    # reference keeps every relation row x^i d^j g and every derivative
    # row d1 x^a d^b e_j in its echelon form.  Seeds from 16 have rank 3,
    # cut at a lower degree: the reference takes seconds there
    rng = random.Random(seed)
    M = _random_module(rng, 3 if seed >= 16 else rng.randint(1, 2))
    top = 8 if seed >= 16 else 14
    for window, pad in [(1, 0), (4, 0), (3, 1), (5, None), (2, 6)]:
        oracle = stabilization_oracle(M, window=window, max_degree=top,
                                      pad=pad)
        assert (tuple(oracle["dims"]), oracle["stabilized"],
                oracle["degree"]) == derivative_row_oracle(
            M, window=window, max_degree=top, pad=pad)


@pytest.mark.parametrize("seed", range(8))
def test_cokernel_span_from_x_shifts(seed):
    # modulo d1 F, x^i d^j g is (-1)^j i!/(i-j)! x^(i-j) g, and zero when
    # j > i, so the oracle's cokernel span needs only the rows x^i g; the
    # rows x^i d^j g are built as the oracle builds them
    rng = random.Random(seed)
    g = {}
    for _ in range(rng.randint(1, 6)):
        a, b = rng.randint(0, 4), rng.randint(0, 4)
        g[a + b, rng.randint(0, 2), a] = rng.choice([-1, 1]) * rng.randint(
            1, 10 ** rng.randint(1, 12))
    for i in range(6):
        for j in range(6):
            row = g
            for _ in range(j):
                row = _d_times(row)
            got = _mod_d(_x_times(row, i))
            if j > i:
                assert got == {}, (i, j)
            else:
                assert got == {k: (-1) ** j * perm(i, j) * c for k, c in
                               _mod_d(_x_times(g, i - j)).items()}, (i, j)


def falling_factorial(k):
    """x^k d^k = theta (theta - 1) ... (theta - k + 1), theta = x d."""
    poly = QPoly.const(1)
    for t in range(k):
        poly = poly * QPoly((-t, 1))
    return poly


def test_theta_image_matches_weyl_product():
    # the b-function moves each initial term x^a d^b of weight w = b - a
    # to weight zero as if left-multiplied by x^w (w >= 0) or d^-w (w < 0),
    # through the closed form prod_{min(w, 0) <= t < b} (theta - t)
    for a in range(7):
        for b in range(7):
            w = b - a
            shift = W.monomial((w,), (0,)) if w >= 0 \
                else W.monomial((0,), (-w,))
            product = normal_product(shift, W.monomial((a,), (b,)))
            theta = QPoly()
            for (p, q, _e), c in product.terms.items():
                assert p == q, (a, b)
                theta = theta + falling_factorial(p[0]) * c
            closed = QPoly.const(1)
            for t in range(min(w, 0), b):
                closed = closed * QPoly((-t, 1))
            assert theta == closed, (a, b)
            assert QPoly(_theta_image(a, b)) == closed, (a, b)


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


def integer_coefficients(poly):
    """A QPoly times the lcm of its denominators, as _integer_roots reads it."""
    den = lcm(*(c.denominator for c in poly.coeffs))
    return [int(c * den) for c in poly.coeffs]


@pytest.mark.parametrize("seed", range(30))
def test_integer_roots_of_random_products(seed):
    # products of linear factors with integer and non-integer roots, some
    # repeated, some times an irreducible quadratic, against the roots put in
    rng = random.Random(seed)
    poly = QPoly.const(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 5)))
    want = set()
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            root = rng.choice([rng.randint(-40, 40),
                               rng.randint(-10**9, 10**9)])
        else:
            root = Fraction(rng.randint(-200, 200), rng.choice([2, 3, 7]))
        if root == int(root):
            want.add(int(root))
        for _ in range(rng.choice([1, 1, 2, 3])):
            poly = poly * QPoly((-root, 1))
    if seed % 3 == 0:
        poly = poly * QPoly((rng.randint(1, 9), 0, 1))
    assert _integer_roots(integer_coefficients(poly)) == sorted(want)


def _random_holonomic(rng, rank):
    # upper triangular with a nonzero diagonal: an iterated extension of
    # cyclic modules W/W P, each holonomic
    return PresentedModule.from_matrix(1, QQ, [
        [rand_element(rng, W, deg=2, terms=3) if j >= i else W.zero()
         for j in range(rank)] for i in range(rank)])


@pytest.mark.parametrize("seed", range(30))
def test_b_function_matches_field_elimination(seed):
    # the Z[theta] pseudo-division against the Q[theta] elimination with
    # RatFunc back substitution; rank 2 and 3 need the lcm over every e_j
    rank = 1 + seed % 3
    M = _random_holonomic(random.Random(seed), rank)
    want = field_indicial_polynomial(_v_lifts(M.gb().elements), rank)
    got = b_function_along_x(M)
    assert got.poly == want
    bound = 1 + int(max(map(abs, want.coeffs[:-1]), default=0))
    roots = [t for t in range(-bound, bound + 1) if not want(Fraction(t))]
    assert list(got.integer_roots) == roots
    assert _integer_roots(integer_coefficients(want)) == roots


@pytest.mark.parametrize("roots,want", [
    # a repeated root makes every member of the Sturm sequence vanish
    # there, so no bisection point may fall on one: 0 is the first midpoint
    ((0, 0, 5), [0, 5]), ((0, 0, 0, -3, 2, 2), [-3, 0, 2]),
    ((Fraction(1, 2), Fraction(1, 2), 1), [1]), ((7, 7, -7, -7), [-7, 7]),
    ((Fraction(-9, 2), -4, -4, -5), [-5, -4]), ((-1, 1), [-1, 1])])
def test_integer_roots_with_repeated_roots(roots, want):
    poly = QPoly.const(3)
    for root in roots:
        poly = poly * QPoly((-root, 1))
    assert _integer_roots(integer_coefficients(poly)) == want


def test_large_integer_root_is_fast():
    # x d - c has the b-function s + c + 1; a root search by trial division
    # up to the square root of the constant term would not finish here
    c = 10 ** 30
    start = time.perf_counter()
    report, code = run("ring W(1) over QQ;\nmodule M = coker [[x1*d1 - %d]];"
                       "\ncheck M chi\n" % c,
                       {"max-degree": 40, "zpower": 8, "stats": False})
    assert time.perf_counter() - start < 1.0
    assert code == 0 and report["result"]["integer_roots"] == [-c - 1]
    assert list(report["result"]["dims"]) == [0, 0]


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
    # the oracle answered {'dims': (1, 0), 'stabilized': True, 'degree': 4}
    # on this right module before it checked the side
    M = module(D, side=RIGHT)
    for compute in (h_dr_n1, b_function_along_x, stabilization_oracle):
        with pytest.raises(RightModule):
            compute(M)


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
