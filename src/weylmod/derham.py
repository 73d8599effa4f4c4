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
grows two echelon forms, keyed degree first, one degree at a time.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from ._linalg import Echelon, add_terms, dense_rank, rank_of_rows
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
from .groebner import FreeVec, buchberger, vres_order
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

def _weight(a, b):
    return b - a


def _homogenize_row(row, rank):
    """Total-degree homogenization of a relation vector into the h ring."""
    deg = 0
    for (comp, a, b, e) in row.terms:
        deg = max(deg, a[0] + b[0])
    terms = {}
    for (comp, a, b, e), c in row.terms.items():
        terms[(comp, a, b, deg - a[0] - b[0])] = c
    return FreeVec(1, H1, rank, terms)


def _dehomogenize_row(row, rank):
    return FreeVec(1, QQ, rank, add_terms({}, (
        ((comp, a, b, 0), c) for (comp, a, b, _e), c in row.terms.items())))


class _VLift:
    """One reducer for the weight filtration: full lift plus initial data.

    lead is the V-order lead of the homogenized basis element.  The
    element is homogeneous, so dehomogenizing merges no term into the
    lead, and it is monic, so the lift's coefficient at stair is 1.
    """

    __slots__ = ("lift", "initial", "weight", "stair")

    def __init__(self, lift, lead, rank):
        comp, a, b, _e = lead
        self.lift = lift
        self.stair = (comp, a[0], b[0])
        self.weight = w = _weight(a[0], b[0])
        self.initial = FreeVec(1, QQ, rank,
                               {k: c for k, c in lift.terms.items()
                                if _weight(k[1][0], k[2][0]) == w})


def _v_lifts(rows, rank):
    """Groebner data of the weight filtration for a relation module."""
    hom = [_homogenize_row(r, rank) for r in rows if r.terms]
    gb = buchberger(hom, vres_order(1))
    return [_VLift(_dehomogenize_row(g, rank), mono, rank)
            for g, (mono, _c) in zip(gb.elements, gb.leads)]


def _falling_factorial(a):
    poly = QPoly.const(Fraction(1))
    for t in range(a):
        poly = poly * QPoly((Fraction(-t), Fraction(1)))
    return poly


def _weight_zero_to_theta(vec, rank):
    """Convert a weight zero vector to polynomials in theta = x d."""
    out = [QPoly.const(Fraction(0)) for _ in range(rank)]
    for (comp, a, b, e), c in vec.terms.items():
        if a[0] != b[0]:
            raise InternalInvariant("a weight zero row has a term x^%d d^%d"
                                    % (a[0], b[0]))
        out[comp] = out[comp] + _falling_factorial(a[0]) * c
    return out


def _indicial_polynomial(lifts, rank):
    """Monic annihilator of the weight zero slice, or None if not finite."""
    rows = []
    for lf in lifts:
        vec = lf.initial
        d = lf.weight
        if d > 0:
            vec = vec.mul_monomial((d,), (0,), 0, Fraction(1))
        elif d < 0:
            vec = vec.mul_monomial((0,), (-d,), 0, Fraction(1))
        row = _weight_zero_to_theta(vec, rank)
        if any(not p.is_zero() for p in row):
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


def _integer_roots(poly):
    if poly.is_zero():
        raise NotHolonomic("zero indicial polynomial")
    roots = []
    p = poly
    if p.eval0() == 0:
        roots.append(0)
        coeffs = list(p.coeffs)
        while coeffs and coeffs[0] == 0:
            coeffs = coeffs[1:]
        p = QPoly(tuple(coeffs))
    if p.degree() >= 1:
        den = 1
        for c in p.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in p.coeffs]
        const = abs(ints[0])
        cand = set()
        d = 1
        while d * d <= const:
            if const % d == 0:
                cand.update((d, -d, const // d, -(const // d)))
            d += 1
        for r in sorted(cand):
            if p(Fraction(r)) == 0:
                roots.append(r)
    return sorted(set(roots))


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
    lifts = _v_lifts(rows, rank)
    b = _indicial_polynomial(lifts, rank)
    if b is None or b.is_zero():
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
    for lf in lifts:
        comp, a, b = lf.stair
        stairs[comp].append((a, b))
    return stairs


def _standard_monomials(stairs, rank, w):
    """Monomials x^a d^(a+w) e_j outside the staircase, for one weight w."""
    out = []
    for j in range(rank):
        if not stairs[j]:
            raise NotHolonomic("free direction in the weight graded module")
        lo = max(0, -w)
        hi = min(max(a, b - w) for (a, b) in stairs[j])
        for a in range(lo, max(hi, lo)):
            out.append((j, a, a + w))
    return out


def _find_reducer(lifts, mono):
    j, a, b = mono
    for lf in lifts:
        cj, ca, cb = lf.stair
        if cj == j and a >= ca and b >= cb:
            return lf
    return None


def _truncated_nf(expr, lifts, min_weight):
    """Reduce to standard monomials, discarding weights below min_weight.

    expr maps (comp, a, b) to Fraction.  Every subtraction uses the full
    lift, so lower weight tails propagate correctly before being cut.
    """
    expr = dict(expr)
    while True:
        expr = {m: c for m, c in expr.items()
                if _weight(m[1], m[2]) >= min_weight}
        target = lf = tkey = None
        for m in expr:
            reducer = _find_reducer(lifts, m)
            if reducer is None:
                continue
            key = (_weight(m[1], m[2]), m[1] + m[2], -m[0])
            if tkey is None or key > tkey:
                target, lf, tkey = m, reducer, key
        if target is None:
            return expr
        j, a, b = target
        _, sa, sb = lf.stair
        piece = lf.lift.mul_monomial((a - sa,), (b - sb,), 0, -expr[target])
        add_terms(expr, (((comp, pa[0], pb[0]), c)
                         for (comp, pa, pb, _pe), c in piece.terms.items()))


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

    W = WeylAlgebra(1, QQ)
    twisted = []
    for row in module.rows:
        terms = {}
        for (comp, a, b, e), c in row.terms.items():
            u = fourier_inverse(W.monomial(a, b, coeff=c))
            add_terms(terms, (((comp, ua, ub, 0), uc)
                              for (ua, ub, _ue), uc in u.terms.items()))
        twisted.append(FreeVec(1, QQ, module.rank, terms))

    rank = module.rank
    lifts, b = _b_data(twisted, rank)
    broots = _integer_roots(b)
    bf = BFunction(b, broots)
    if not broots:
        return CohomologyReport((0, 0), 0, "DirectN1", b_function=bf)

    k0, k1 = min(broots), max(broots)
    stairs = _stairs_by_comp(lifts, rank)
    dom = []
    for w in range(k0 + 1, k1 + 2):
        dom.extend(_standard_monomials(stairs, rank, w))
    cod = []
    for w in range(k0, k1 + 1):
        cod.extend(_standard_monomials(stairs, rank, w))
    cod_index = {m: i for i, m in enumerate(cod)}

    rows = []
    for (j, a, bb) in dom:
        nf = _truncated_nf({(j, a + 1, bb): Fraction(1)}, lifts, k0)
        row = {}
        for m, c in nf.items():
            row[cod_index[m]] = c
        rows.append(row)
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
    """
    if module.n != 1 or module.ring != QQ:
        raise UnsupportedAmbient("oracle requires W(1) over QQ")
    if pad is None:
        pad = window
    if pad < 0:
        raise ValueError("pad must be >= 0")
    if max_degree < 0:
        raise IndexOutOfRange("oracle max_degree %d is negative" % max_degree)
    rank = module.rank
    gb = [(max(a[0] + b[0] for (_c, a, b, _e) in g.terms), g)
          for g in module.gb().elements]
    W = WeylAlgebra(1, QQ)

    def relations(deg):
        """The rows x^i d^j g with deg(g) + i + j = deg."""
        return [{(a[0] + b[0], comp, a[0]): c for (comp, a, b, _e), c
                 in g.mul_monomial((i,), (deg - gdeg - i,), 0,
                                   Fraction(1)).terms.items()}
                for gdeg, g in gb for i in range(deg - gdeg + 1)]

    def dx_row(j, a, b):
        u = W.d(1) * W.monomial((a,), (b,))
        return {(ua[0] + ub[0], j, ua[0]): c
                for (ua, ub, _ue), c in u.terms.items()}

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
                span.add(dx_row(j, a, t - a))
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
