"""
De Rham cohomology of holonomic modules in one variable, exactly.

The n = 1 restriction algorithm runs entirely at the level of the
filtration by operator weight b - a (weight of x^a d^b).  Kernel and
cokernel of the derivative acting on M are converted, through the
Fourier twist, into kernel and cokernel of multiplication by x on a
twisted module; those are finite dimensional once the twist is
holonomic and are read off from a finite window of the weight
filtration, cut out by the integer roots of a one-variable indicial
polynomial.

Also here: the algebraic de Rham complex in any number of variables
(for the sign bookkeeping), an Euler characteristic comparison for
perfect complexes over the power series coordinate, and a truncation
oracle used to cross-check the window computation.  The oracle shares
no code with the window: it cuts the module at growing total degree and
grows two echelon forms of integer rows, keyed degree first, one degree
at a time.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from ._linalg import (Echelon, add_terms, cancel, dense_rank, primitive,
                      rank_of_rows)
from ._packed import layout, widening
from .errors import (
    IndexOutOfRange,
    InternalInvariant,
    NonIntegral,
    NotAComplex,
    NotHolonomic,
    NotMinimalDimension,
    RankMismatch,
    RightModule,
    UnsupportedAmbient,
)
from .groebner import FreeVec, _Basis, buchberger, vres_order
from .lattice import make_lattice, reduce_mod_z
from .modules import LEFT, is_minimal_dimension
from .scalars import QPoly, RatFunc
from .weyl import H1, QQ, WeylAlgebra, fourier_inverse


# ---------------------------------------------------------------------------
# the de Rham complex in n variables


def _wedge(i, subset):
    """dx_i wedge dx_subset: (sign, new subset), or None when i in subset."""
    if i in subset:
        return None
    before = sum(1 for j in subset if j < i)
    return (-1 if before % 2 else 1), tuple(sorted((*subset, i)))


class DeRhamComplex:
    """M -> M^n -> ... -> M^1 with the exterior derivative built from d_i."""

    __slots__ = ("n", "module", "index_sets")

    def __init__(self, module):
        if module.side != LEFT:
            raise RightModule("de Rham complex is formed on left modules")
        self.module = module
        self.n = module.n
        self.index_sets = [list(combinations(range(1, self.n + 1), s))
                           for s in range(self.n + 1)]

    def rank_at(self, s):
        return len(self.index_sets[s])

    def differential_entries(self, s):
        """Map degree s -> s+1 as {(target_subset, source_subset): d_i term}."""
        W = WeylAlgebra(self.n, self.module.ring)
        entries = {}
        for src in self.index_sets[s]:
            for i in range(1, self.n + 1):
                w = _wedge(i, src)
                if w is None:
                    continue
                sign, tgt = w
                op = W.d(i) if sign > 0 else W.d(i).scale(Fraction(-1))
                key = (tgt, src)
                entries[key] = entries[key] + op if key in entries else op
        return entries

    def apply_to_polynomials(self, s, component_map):
        """Differential on a degree s element with polynomial components.

        component_map sends source subsets to XPoly values; missing keys are
        zero.  Returns the degree s+1 element in the same encoding.
        """
        out = {}
        for src, poly in component_map.items():
            for i in range(1, self.n + 1):
                w = _wedge(i, src)
                if w is None:
                    continue
                sign, tgt = w
                piece = poly.diff(i)
                if sign < 0:
                    piece = piece.scale(Fraction(-1))
                out[tgt] = out[tgt] + piece if tgt in out else piece
        return {k: v for k, v in out.items() if v.terms}


def dr_complex(module):
    return DeRhamComplex(module)


# ---------------------------------------------------------------------------
# weight filtration data in one variable
#
# A term x^a d^b e_comp has weight b - a.  The reducers of the weight
# filtration are tuples (stair, weight, terms): the V-order lead
# (comp, a, b) of a basis element of the homogenized relations, its
# weight, and the element dehomogenized, keyed (comp, (a,), (b,), 0).
# The element is homogeneous, so dehomogenizing merges no terms, and it
# is monic, so its coefficient at stair is 1.

def _v_lifts(rows):
    """Groebner data of the weight filtration for a relation module."""
    hom = []
    for row in rows:
        if row.terms:
            deg = max(a[0] + b[0] for (_comp, a, b, _e) in row.terms)
            hom.append(FreeVec(1, H1, row.rank, {
                (comp, a, b, deg - a[0] - b[0]): c
                for (comp, a, b, _e), c in row.terms.items()}))
    basis = buchberger(hom, vres_order(1))
    return [((comp, a[0], b[0]), b[0] - a[0],
             {(j, p, q, 0): c for (j, p, q, _e), c in g.terms.items()})
            for g, ((comp, a, b, _e), _c) in zip(basis.elements, basis.leads)]


def _theta_image(a, b):
    """x^a d^b moved to weight zero, as a polynomial in theta = x d.

    With w = b - a, left multiplication by x^w (w >= 0) or d^-w (w < 0)
    gives x^b d^b = theta (theta - 1) ... (theta - b + 1), times
    d^-w x^-w = (theta + 1) ... (theta - w) when w < 0.
    """
    poly = QPoly.const(1)
    for t in range(min(b - a, 0), b):
        poly = poly * QPoly((-t, 1))
    return poly


def _indicial_polynomial(lifts, rank):
    """Monic annihilator of the weight zero slice, or None if not finite."""
    # each lift's initial terms (those of its own weight) moved to weight
    # zero; within one weight the images of distinct terms have distinct
    # degrees, so no row is zero
    rows = []
    for _stair, w, terms in lifts:
        row = [QPoly() for _ in range(rank)]
        for (comp, a, b, _e), c in terms.items():
            if b[0] - a[0] == w:
                row[comp] = row[comp] + _theta_image(a[0], b[0]) * c
        rows.append(row)

    # triangularize over Q[theta] by euclidean elimination per column
    rem = rows
    pivots = []
    for col in range(rank):
        active = [r for r in rem if not r[col].is_zero()]
        inactive = [r for r in rem if r[col].is_zero()]
        while len(active) > 1:
            active.sort(key=lambda r: r[col].degree())
            base = active[0]
            nxt = []
            for r in active[1:]:
                q = r[col] // base[col]
                reduced = [r[j] - q * base[j] for j in range(rank)]
                if reduced[col].is_zero():
                    inactive.append(reduced)
                else:
                    nxt.append(reduced)
            active = [base] + nxt
        if not active:
            return None
        pivots.append(active[0])
        rem = inactive

    # least common multiple of the denominators solving b e_j in the span
    acc = QPoly.const(Fraction(1))
    for j in range(rank):
        target = [RatFunc(1 if t == j else 0) for t in range(rank)]
        for col in range(rank):
            c = target[col] / RatFunc(pivots[col][col])
            if not c.is_zero():
                for t in range(col, rank):
                    target[t] = target[t] - c * RatFunc(pivots[col][t])
                acc = acc.lcm(c.den)
        if not all(t.is_zero() for t in target):
            raise InternalInvariant("back substitution left a remainder in "
                                    "the triangular theta system")
    return acc.monic()


def _horner(coeffs, x):
    """The polynomial with coefficients coeffs, highest first, at x."""
    v = 0
    for c in coeffs:
        v = v * x + c
    return v


def _integer_roots(poly):
    """The integer roots of a nonzero polynomial over Q, ascending.

    Sturm bisection on the squarefree part.  The Sturm sequence of poly,
    cleared to integers, is gcd(poly, poly') times that of the squarefree
    part, so where poly does not vanish its sign changes V(t) are the
    squarefree part's, and (s, t) holds V(s) - V(t) distinct roots.  A
    rational root has a denominator dividing the leading coefficient L of
    poly cleared of denominators, so none is x + 1/2L for an integer x:
    the bisection, from the Cauchy bound, evaluates only there, and
    (x - 1 + 1/2L, x + 1/2L) holds the integer root x exactly when
    poly(x) = 0.
    """
    if poly.degree() < 1:
        return []
    den = lcm(*(c.denominator for c in poly.coeffs))
    f = [int(c * den) for c in reversed(poly.coeffs)]
    # coefficients highest first; f, f', then minus the remainder of the
    # last two, each up to a positive factor, down to the last nonzero one
    seq = [f, [c * (len(f) - 1 - i) for i, c in enumerate(f[:-1])]]
    while True:
        r, last = seq[-2], seq[-1]
        # a leading zero cancels with m = 1, c = 0: the step just drops it
        while r and (len(r) >= len(last) or not r[0]):
            m, c = cancel(r[0], last[0])
            r = [m * s - c * t for s, t in zip(r, last + [0] * len(r))][1:]
        if not r:
            break
        r, d = primitive(dict(enumerate(r)), 0)
        seq.append([-c if d > 0 else c for c in r.values()])
    # p(x + 1/2L) times (2L)^deg(p) > 0, as a polynomial in 2L x + 1
    two_l = 2 * abs(f[0])
    seq = [[c * two_l ** i for i, c in enumerate(p)] for p in seq]

    def sign_changes(x):
        u = two_l * x + 1
        signs = [v > 0 for v in (_horner(p, u) for p in seq) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    # the Cauchy bound: every integer root lies in [1 - bound, bound - 1]
    bound = 1 - (-max(map(abs, f[1:])) // abs(f[0]))
    roots = []
    todo = [(-bound, sign_changes(-bound), bound, sign_changes(bound))]
    while todo:
        a, va, b, vb = todo.pop()
        if va == vb:
            continue
        if b - a > 1:
            mid = (a + b) // 2
            vm = sign_changes(mid)
            todo += [(a, va, mid, vm), (mid, vm, b, vb)]
        elif not _horner(f, b):
            roots.append(b)
    return sorted(roots)


class BFunction:
    """Indicial polynomial of the weight filtration along x = 0."""

    __slots__ = ("poly", "integer_roots")

    def __init__(self, poly, integer_roots):
        self.poly = poly
        self.integer_roots = integer_roots

    def __repr__(self):
        return "BFunction(%s; integer roots %s)" % (
            self.poly.to_str("s"), self.integer_roots)


def _b_data(rows, rank):
    lifts = _v_lifts(rows)
    b = _indicial_polynomial(lifts, rank)
    if b is None:
        raise NotHolonomic("weight zero slice is not finite dimensional")
    return lifts, b


def b_function_along_x(module):
    if module.n != 1 or module.ring != QQ:
        raise UnsupportedAmbient("b-function requires one variable over QQ")
    if module.side != LEFT:
        raise RightModule("b-function is computed on left modules")
    lifts, b = _b_data(module.gb().elements, module.rank)
    return BFunction(b, _integer_roots(b))


# ---------------------------------------------------------------------------
# standard monomials and the truncated window complex

def _stairs_by_comp(lifts, rank):
    stairs = [[] for _ in range(rank)]
    for (comp, a, b), _w, _terms in lifts:
        stairs[comp].append((a, b))
    return stairs


def _standard_monomials(stairs, rank, w):
    """Monomials x^a d^(a+w) e_j outside the staircase, for one weight w.

    Keyed (j, (a,), (a + w,), 0), as the terms of the lifts.
    """
    out = []
    for j in range(rank):
        if not stairs[j]:
            raise NotHolonomic("free direction in the weight graded module")
        lo = max(0, -w)
        hi = min(max(a, b - w) for (a, b) in stairs[j])
        out.extend((j, (a,), (a + w,), 0) for a in range(lo, hi))
    return out


def _truncated_nf(expr, lifts, min_weight, keys):
    """Reduce to standard monomials, discarding weights below min_weight.

    expr maps packed terms (comp, (a,), (b,), 0) to Fractions, and lifts
    is a groebner._Basis of the lifts, each led by its stair.  Each step
    takes the largest term in the V-order (weight, a + b, e, -comp), whose
    memoized keys lead with the weight b - a, and stops once that falls
    below min_weight.  A term no stair divides moves to the remainder; any
    other is cancelled by a monomial multiple of the first lift whose
    stair divides it.  Every subtraction uses the full lift, so lower
    weight tails propagate correctly before being cut.
    """
    lay = lifts.layout
    expr = dict(expr)
    rem = {}
    while expr:
        mono = max(expr, key=keys.__getitem__)
        if keys[mono][0] < min_weight:
            break
        hit = lay.divisor(lifts.index, mono)
        if hit is None:
            rem[mono] = expr.pop(mono)
            continue
        k, _stair, q = hit
        lay.mul_into(expr, q, -expr[mono], lifts.rows[k], lifts.envs[k])
    return rem


class CohomologyReport:
    """Dimensions and Euler characteristic with their provenance."""

    __slots__ = ("dims", "chi", "provenance", "b_function", "details")

    def __init__(self, dims, chi, provenance, b_function=None, details=None):
        self.dims = dims
        self.chi = chi
        self.provenance = provenance
        self.b_function = b_function
        self.details = details

    def __repr__(self):
        return "CohomologyReport(dims=%s, chi=%s, %s)" % (
            self.dims, self.chi, self.provenance)


def h_dr_n1(module):
    """Kernel and cokernel dimensions of the derivative, one variable.

    The Fourier twist turns the derivative into multiplication by x; the
    integer roots of the indicial polynomial cut a finite window of the
    weight filtration on which x already realizes the full kernel and
    cokernel.
    """
    if module.n != 1 or module.ring != QQ:
        raise UnsupportedAmbient("direct computation requires W(1) over QQ")
    if module.side != LEFT:
        raise RightModule("de Rham cohomology of a right module")
    if not is_minimal_dimension(module):
        raise NotHolonomic("module is not holonomic")

    rank = module.rank
    lifts, b = _b_data([fourier_inverse(row) for row in module.rows], rank)
    broots = _integer_roots(b)
    bf = BFunction(b, broots)
    if not broots:
        return CohomologyReport((0, 0), 0, "DirectN1", b_function=bf)

    k0, k1 = min(broots), max(broots)
    stairs = _stairs_by_comp(lifts, rank)
    dom = [m for w in range(k0 + 1, k1 + 2)
           for m in _standard_monomials(stairs, rank, w)]
    cod = [m for w in range(k0, k1 + 1)
           for m in _standard_monomials(stairs, rank, w)]
    cod_index = {m: i for i, m in enumerate(cod)}
    starts = [{(j, (a + 1,), bb, 0): Fraction(1)} for j, (a,), bb, _e in dom]

    def window(lay):
        basis = _Basis(lay)
        for (comp, a, b), _w, terms in lifts:
            basis.add(lay.pack(terms), lay.enc[(comp, (a,), (b,), 0)])
        keys = vres_order(1).packed(lay)
        return [{cod_index[m]: c for m, c in lay.unpack(_truncated_nf(
            lay.pack(start), basis, k0, keys)).items()}
            for start in starts]

    rows = widening(window, layout(1, False))
    r = rank_of_rows(rows)
    h0 = len(dom) - r
    h1 = len(cod) - r
    return CohomologyReport((h0, h1), h0 - h1, "DirectN1", b_function=bf)


def chi_via_reduction(pres):
    """Euler characteristic of an integral presentation through its fiber.

    The constancy statement lets the special fiber stand in for the whole
    family; only chi transfers, so dims are reported on the reduction
    alone and the headline carries chi.
    """
    report = reduce_mod_z(make_lattice(pres))
    if report.is_zero:
        fiber = CohomologyReport((0, 0), 0, "ViaReduction")
        return CohomologyReport((0, 0), 0, "Transfer", details=fiber)
    if not report.minimal_dimension_verdict:
        raise NotMinimalDimension("reduction is not of minimal dimension")
    inner = h_dr_n1(report.reduced_module)
    fiber = CohomologyReport(inner.dims, inner.chi, "ViaReduction",
                             b_function=inner.b_function)
    return CohomologyReport(None, inner.chi, "Transfer", details=fiber)


# ---------------------------------------------------------------------------
# truncation oracle

def _d_times(row):
    """d * row, for a row keyed (a + b, comp, a) by its terms x^a d^b e_comp.

    d x^a d^b = x^a d^(b+1) + a x^(a-1) d^b.
    """
    out = {}
    for (deg, comp, a), c in row.items():
        add_terms(out, [((deg + 1, comp, a), c)])
        if a:
            add_terms(out, [((deg - 1, comp, a - 1), a * c)])
    return out


def stabilization_oracle(module, window=5, max_degree=40, pad=None):
    """Kernel and cokernel of the derivative by brute force truncation.

    F_d is spanned by the monomials x^a d^b e_j with a + b <= d, and N_d
    by the monomial multiples x^i d^j g of the Groebner basis of total
    degree <= d.  At degree d the kernel count is

        dim F_d - dim N_d - (dim(N_(d+1) + d1 F_d) - dim N_(d+1)),

    exact from below, and the cokernel count is dim F_d - dim(S cap F_d)
    with S = N_(d+pad+1) + d1 F_(d+pad): it looks `pad` degrees above d
    so that classes killed only from higher degree are already seen, and
    converges from above in pad and from below in d.  The dimensions are
    accepted once both sit still for `window` consecutive degrees.
    Independent of the window algorithm above: membership in the relation
    module is decided by linear algebra over those monomial multiples.

    Every one of these spans grows with d, so each row is built once, at
    its own degree, and two echelon forms only grow: `rel` spans N and
    `span` spans N + d1 F, which at degree t is the image span of degree
    t and the cokernel span S of degree t - pad.  Rows are keyed
    (degree, comp, a) and Echelon pivots on the largest key, so a vector
    of the span lies in F_d exactly when the pivot rows it combines all
    have degree <= d: dim(S cap F_d) is the number of pivots of degree
    at most d.

    Rows are integer rows: each basis element g is the primitive row the
    Groebner kernel keeps, and x^i d^j g is built from rows already made,
    as x (x^(i-1) d^j g) by shifting every key (t, j, a) to (t+1, j, a+1),
    or for i = 0 as d (d^(j-1) g) by _d_times.  Only the span of each
    echelon form is read, so integer multiples change nothing.
    """
    if module.n != 1 or module.ring != QQ:
        raise UnsupportedAmbient("oracle requires W(1) over QQ")
    if module.side != LEFT:
        raise RightModule("truncation oracle of a right module")
    if pad is None:
        pad = window
    if window < 1:
        raise IndexOutOfRange("oracle window %d is below 1" % window)
    if pad < 0:
        raise IndexOutOfRange("oracle pad %d is negative" % pad)
    if max_degree < 0:
        raise IndexOutOfRange("oracle max_degree %d is negative" % max_degree)
    rank = module.rank
    # starts[k] = deg(g_k); last[k]: the rows x^i d^j g_k (i = 0, 1, ...)
    # of the degree built last
    starts, last = [], []
    for g in module.gb()._kernel_rows():
        row = {(a[0] + b[0], comp, a[0]): c
               for (comp, a, b, _e), c in g.items()}
        starts.append(max(key[0] for key in row))
        last.append([row])

    def relations(deg):
        """The rows x^i d^j g with deg(g) + i + j = deg."""
        out = []
        for k, gdeg in enumerate(starts):
            if gdeg > deg:
                continue
            if gdeg < deg:
                rows = last[k]
                last[k] = [_d_times(rows[0])] + [
                    {(t + 1, j, a + 1): c for (t, j, a), c in row.items()}
                    for row in rows]
            out.extend(last[k])
        return out

    rel, span = Echelon(), Echelon()
    rows = []        # rows[t]: relation rows of degree t
    rel_rank = []    # rel_rank[t] = dim N_t
    span_rank = []   # span_rank[t] = dim(N_(t+1) + d1 F_t)
    history = []
    for t in range(max_degree + pad + 1):
        while len(rows) <= t + 1:
            rows.append(relations(len(rows)))
            for row in rows[-1]:
                span.add(row)
        for j in range(rank):
            for a in range(t + 1):
                span.add(_d_times({(t, j, a): 1}))
        span_rank.append(span.rank())
        d = t - pad
        if d < 0:
            continue
        while len(rel_rank) <= d + 1:
            for row in rows[len(rel_rank)]:
                rel.add(row)
            rel_rank.append(rel.rank())
        size = rank * (d + 1) * (d + 2) // 2
        ker_dim = size - rel_rank[d] - (span_rank[d] - rel_rank[d + 1])
        cok_dim = size - sum(1 for key in span.pivots if key[0] <= d)
        history.append((ker_dim, cok_dim))
        if len(history) >= window and len(set(history[-window:])) == 1:
            return {"dims": history[-1], "stabilized": True, "degree": d}
    return {"dims": history[-1], "stabilized": False, "degree": max_degree}


# ---------------------------------------------------------------------------
# perfect complexes over the power series coordinate

class PerfectComplexOverDVR:
    """Bounded complex of finite free modules with integral matrices.

    matrices[k] maps degree k to degree k+1 in row convention: entry
    [i][j] is the coefficient of target basis vector j in the image of
    source basis vector i, so it has ranks[k] rows and ranks[k+1] columns.
    """

    __slots__ = ("ranks", "matrices")

    def __init__(self, ranks, matrices):
        ranks = list(ranks)
        if len(matrices) != max(len(ranks) - 1, 0):
            raise RankMismatch("need one matrix per adjacent pair of ranks")
        mats = []
        for k, mat in enumerate(matrices):
            if len(mat) != ranks[k]:
                raise RankMismatch("matrix %d has %d rows, expected %d"
                                   % (k, len(mat), ranks[k]))
            rows = []
            for row in mat:
                if len(row) != ranks[k + 1]:
                    raise RankMismatch("matrix %d has a row of length %d,"
                                       " expected %d"
                                       % (k, len(row), ranks[k + 1]))
                rows.append([_as_ratfunc(v) for v in row])
            mats.append(rows)
        for mat in mats:
            for row in mat:
                for v in row:
                    if not v.is_integral():
                        raise NonIntegral("matrix entry %s has a pole at 0"
                                          % v.to_str())
        self.ranks = ranks
        self.matrices = mats


def _as_ratfunc(v):
    return v if isinstance(v, RatFunc) else RatFunc(v)


def _matmul(a, b):
    zero = RatFunc(0)
    out = []
    for row in a:
        orow = []
        for j in range(len(b[0])):
            s = zero
            for t in range(len(b)):
                s = s + row[t] * b[t][j]
            orow.append(s)
        out.append(orow)
    return out


def euler_check_perfect(complex_):
    """Euler characteristics of both fibers of a perfect complex.

    Exact ranks are taken over the rational function field and again
    after evaluating every entry at 0; the two alternating sums are
    reported side by side.
    """
    ranks = complex_.ranks
    mats = complex_.matrices
    for k in range(len(mats) - 1):
        if not (ranks[k] and ranks[k + 1] and ranks[k + 2]):
            continue
        prod = _matmul(mats[k], mats[k + 1])
        if any(not v.is_zero() for row in prod for v in row):
            raise NotAComplex("composition of maps %d and %d is not zero"
                              % (k, k + 1))

    gen_ranks = [dense_rank(m) for m in mats]
    spc_ranks = [dense_rank([[v.residue0() for v in row] for row in m])
                 for m in mats]

    def chi(mranks):
        total = 0
        dims = []
        for k, r in enumerate(ranks):
            din = mranks[k - 1] if k >= 1 else 0
            dout = mranks[k] if k < len(mranks) else 0
            dims.append(r - din - dout)
            total += (-1) ** k * dims[-1]
        return total, dims

    chi_gen, dims_gen = chi(gen_ranks)
    chi_spc, dims_spc = chi(spc_ranks)
    return {
        "chi_generic": chi_gen,
        "chi_special": chi_spc,
        "equal": chi_gen == chi_spc,
        "dims_generic": dims_gen,
        "dims_special": dims_spc,
    }
