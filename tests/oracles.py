"""Independent oracles used to cross-check the engine.

Membership is decided by plain linear algebra: span all left monomial
multiples m*g with deg(m) + deg(g) below a bound and row reduce.  No
Groebner machinery is involved, so agreement is meaningful.

Normal forms are checked against textbook left division over the
coefficient field, written with public FreeVec arithmetic only.

The grade is taken by its definition, the least i with Ext^i(M, W) != 0,
from free resolutions; the engine reads it off the dimension instead.

Products are checked against the Leibniz rule, applied one derivation at
a time to plain exponent tuples; so are the linear combinations of rows
and the transposes built from those products.

A tracked Groebner basis is certified by its definition, with neither the
engine's pair criteria nor its division loop: the basis is monic and
reduced, every input row and every S-polynomial of the basis (built by
the Leibniz rule) leaves no remainder under textbook field division, and
the transform and lifts give back the elements and the inputs.

The de Rham truncation oracle, which reads N + d1 F modulo d1 W, is
checked against the span it stands for: relation rows and derivative
rows d1 x^a d^b e_j in one echelon form, all built by the Leibniz rule.

The b-function, which the engine finds over Z[theta] by pseudo-division,
is checked against the same elimination over Q[theta], with QPoly
division and back substitution over Q(theta).

Ranks over Q(z), which the engine takes fraction-free on rows cleared to
Z[z], are checked against Gaussian elimination over Q(z).  Both oracles
keep an element of the field as a pair of QPolys reduced by QPoly.gcd,
so they share no gcd with the engine's Z[z] kernel.

The echelon form of the engine takes rows of ints or of ZPolys, so the
membership and de Rham oracles clear each row over one denominator
(_linalg.clear) before they add it; a nonzero multiple spans the same
line.

The lattice layer, which colons, saturates and reduces mod z on packed
kernel rows, is checked against the same steps on FreeVecs: the colon
by z reads the monic basis of the doubled module that buchberger hands
out, saturation compares those bases as sets, and reduction mod z maps
each entry through reduce_element_mod_z.

The Kunneth check, which skips the terms an invariant decides, is
checked against the check that builds all three: Ext^i of the lattice
and of its reduction, and the colon of Ext^(i+1).
"""

from fractions import Fraction
from itertools import combinations

from weylmod import (H1, INF, ZP, FreeVec, PresentedModule, QPoly, RatFunc,
                     WeylAlgebra, bernstein_degree, bernstein_order,
                     buchberger, ext, leading_term, pot_block_order,
                     reduce_element_mod_z)
from weylmod._linalg import Echelon, clear
from weylmod.groebner import _colon, _preimage, _Rows
from weylmod.lattice import KunnethReport, _reduced_module
from weylmod.modules import homological_bound


def all_monomials(n, deg):
    out = set()
    def rec(slots, left):
        if len(slots) == 2 * n:
            out.add((tuple(slots[:n]), tuple(slots[n:])))
            return
        for k in range(left + 1):
            rec(slots + [k], left - k)
    rec([], deg)
    return sorted(out)


def _cleared(terms):
    """A term dict times the lcm of its denominators."""
    return dict(zip(terms, clear(terms.values())[0]))


def brute_member(v, gens, bound):
    """Is v a combination sum q_i g_i with deg(q_i) + deg(g_i) <= bound."""
    W = WeylAlgebra(v.n, v.ring)
    ech = Echelon()
    for g in gens:
        if g.is_zero():
            continue
        room = bound - bernstein_degree(g)
        if room < 0:
            continue
        for alpha, beta in all_monomials(v.n, room):
            prod = W.monomial(alpha, beta) * g
            ech.add(_cleared(prod.terms))
    rem = ech.reduce(_cleared(v.terms))
    return not rem


def ext_grade(M):
    """min{i : Ext^i(M, W) != 0}, +infinity when every Ext vanishes."""
    for i in range(homological_bound(M.n, M.ring) + 1):
        if not ext(i, M).is_zero():
            return i
    return INF


def field_normal_form(v, basis, order):
    """Remainder of left division of v by a list of FreeVec, over the field.

    Each step takes the leading term c m of what is left.  If the first
    element g whose lead l t divides m exists, it subtracts (c / l) (m / t) g;
    otherwise it moves c m to the remainder.
    """
    leads = [leading_term(g, order) if g else None for g in basis]
    rem = FreeVec.zero(v.n, v.ring, v.rank)
    while v:
        mono, c = leading_term(v, order)
        comp, a, b, e = mono
        for g, lead in zip(basis, leads):
            if lead is None:
                continue
            (gcomp, ga, gb, ge), lc = lead
            if gcomp == comp and ge <= e and all(
                    s <= t for s, t in zip(ga + gb, a + b)):
                step = g.mul_monomial(
                    tuple(t - s for s, t in zip(ga, a)),
                    tuple(t - s for s, t in zip(gb, b)), e - ge, 1)
                v = v - step.scale(c / lc)
                break
        else:
            term = FreeVec(v.n, v.ring, v.rank, {mono: c})
            rem = rem + term
            v = v - term
    return rem


def _accumulate(out, key, c):
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def leibniz_product(left, right, homog=False):
    """left * right on normal-ordered term dicts, by the Leibniz rule alone.

    A key (a, b, e) means z^e x^a d^b, or h^e x^a d^b when homog; keys of
    right may carry a component in front, which the product keeps.  Each
    d_i of a left term moves through the right factor one at a time:
    d_i x^a d^b = x^a d^(b + 1_i) + a_i x^(a - 1_i) d^b, the second term
    times h^2 when homog.
    """
    out = {}
    for (a1, b1, e1), c1 in left.items():
        cur = dict(right)
        for i, times in enumerate(b1):
            for _ in range(times):
                nxt = {}
                for key, c in cur.items():
                    head, (a, b, e) = key[:-3], key[-3:]
                    up = tuple(v + (j == i) for j, v in enumerate(b))
                    _accumulate(nxt, head + (a, up, e), c)
                    if a[i]:
                        down = tuple(v - (j == i) for j, v in enumerate(a))
                        _accumulate(nxt, head + (down, b, e + 2 * homog),
                                    c * a[i])
                cur = nxt
        for key, c in cur.items():
            head, (a, b, e) = key[:-3], key[-3:]
            shifted = tuple(s + t for s, t in zip(a1, a))
            _accumulate(out, head + (shifted, b, e1 + e), c1 * c)
    return out


def leibniz_combination(coeffs, rows, homog=False):
    """sum_k coeffs_k rows[k] as a term dict, each product by leibniz_product.

    coeffs is a FreeVec over W^len(rows) and rows a list of FreeVec.
    """
    out = {}
    for (k, a, b, e), c in coeffs.terms.items():
        for key, v in leibniz_product({(a, b, e): c}, rows[k].terms,
                                      homog).items():
            _accumulate(out, key, v)
    return out


def basis_certificate(gb, gens, order):
    """The checks that a tracked basis gb of the rows gens fails; [] if none.

    gb needs only elements, transform and lifts.  The checks: the
    elements are monic and no lead divides a term of another element;
    every row of gens, and the S-polynomial of every pair of elements in
    one component, each multiple a leibniz_product, leaves no remainder
    under field_normal_form; leibniz_combination gives element i from
    transform[i], and generator j from lifts[j].
    """
    elements = gb.elements
    homog = bool(gens) and gens[0].ring == H1
    leads = [leading_term(g, order) for g in elements]
    failed = []

    def divides(lead, mono):
        return lead[0] == mono[0] and lead[3] <= mono[3] and all(
            s <= t for s, t in zip(lead[1] + lead[2], mono[1] + mono[2]))

    if any(c != 1 for _m, c in leads) or any(
            divides(m, t) for i, (m, _c) in enumerate(leads)
            for k, g in enumerate(elements) if k != i for t in g.terms):
        failed.append("not a monic reduced basis")
    if any(not field_normal_form(v, elements, order).is_zero()
           for v in gens):
        failed.append("an input row is not reduced to zero")
    for (g, (m, _c)), (h, (l, _d)) in combinations(zip(elements, leads), 2):
        if m[0] != l[0]:
            continue
        a, b = tuple(map(max, m[1], l[1])), tuple(map(max, m[2], l[2]))
        e = max(m[3], l[3])

        def multiple(v, lead):
            q = (tuple(s - t for s, t in zip(a, lead[1])),
                 tuple(s - t for s, t in zip(b, lead[2])), e - lead[3])
            return leibniz_product({q: 1}, v.terms, homog)

        sp = multiple(g, m)
        for key, c in multiple(h, l).items():
            _accumulate(sp, key, -c)
        sp = FreeVec(g.n, g.ring, g.rank, sp)
        if not field_normal_form(sp, elements, order).is_zero():
            failed.append("an S-polynomial is not reduced to zero")
            break
    if len(gb.transform) != len(elements) or any(
            leibniz_combination(t, gens, homog) != g.terms
            for g, t in zip(elements, gb.transform)):
        failed.append("a transform row does not give its element")
    if len(gb.lifts) != len(gens) or any(
            lift.rank != len(elements)
            or leibniz_combination(lift, elements, homog) != v.terms
            for v, lift in zip(gens, gb.lifts)):
        failed.append("a lift does not give its generator")
    return failed


def leibniz_transpose(v, homog=False):
    """transpose of a term dict: each z^e x^a d^b becomes (-1)^|b| d^b x^a.

    The reordering of d^b past x^a is leibniz_product's; what comes
    before (a, b, e) in a key is carried over.
    """
    out = {}
    for key, c in v.items():
        head, (a, b, e) = key[:-3], key[-3:]
        z0 = (0,) * len(a)
        sign = -1 if sum(b) % 2 else 1
        for k, w in leibniz_product({(z0, b, e): c * sign},
                                    {head + (a, z0, 0): 1}, homog).items():
            _accumulate(out, k, w)
    return out


def _by_degree(terms):
    """A W_1 term dict keyed (a + b, comp, a), as the de Rham oracle keys."""
    return {(a[0] + b[0], comp, a[0]): c
            for (comp, a, b, _e), c in terms.items()}


def derivative_row_oracle(module, window=5, max_degree=40, pad=None):
    """(dims, stabilized, degree) of stabilization_oracle, from d1 F as rows.

    The counts of stabilization_oracle, with every span taken as it is
    defined: `span` at degree t holds the relation rows x^i d^j g of
    degree <= t + 1, for g in the Groebner basis, and the derivative
    rows d1 x^a d^b e_j with a + b <= t; `rel` the relation rows alone.
    Each row is a product by leibniz_product.
    """
    if pad is None:
        pad = window
    rank = module.rank
    basis = module.gb().elements
    d1 = {((0,), (1,), 0): 1}

    def relations(deg):
        out = []
        for g in basis:
            room = deg - max(a[0] + b[0] for _comp, a, b, _e in g.terms)
            out += [_cleared(_by_degree(leibniz_product(
                {((i,), (room - i,), 0): 1}, g.terms)))
                    for i in range(room + 1)]
        return out

    rel, span = Echelon(), Echelon()
    built = 0        # relation rows of degree < built are in span
    rel_rank, span_rank, history = [], [], []
    for t in range(max_degree + pad + 1):
        while built <= t + 1:
            for row in relations(built):
                span.add(row)
            built += 1
        for j in range(rank):
            for a in range(t + 1):
                span.add(_by_degree(leibniz_product(
                    d1, {(j, (a,), (t - a,), 0): 1})))
        span_rank.append(span.rank())
        d = t - pad
        if d < 0:
            continue
        while len(rel_rank) <= d + 1:
            for row in relations(len(rel_rank)):
                rel.add(row)
            rel_rank.append(rel.rank())
        size = rank * (d + 1) * (d + 2) // 2
        ker_dim = size - rel_rank[d] - (span_rank[d] - rel_rank[d + 1])
        cok_dim = size - sum(1 for key in span.pivots if key[0] <= d)
        history.append((ker_dim, cok_dim))
        if len(history) >= window and len(set(history[-window:])) == 1:
            return history[-1], True, d
    return history[-1], False, max_degree


_Q1 = QPoly.const(1)


def _field(v):
    """A RatFunc, a Fraction or an int as a pair (num, den) of QPolys."""
    if isinstance(v, RatFunc):
        return v.num, v.den
    return QPoly.const(v), _Q1


def _lowest(num, den):
    """num / den as a pair of QPolys over their gcd, with den monic."""
    if num.is_zero():
        return num, _Q1
    g = num.gcd(den)
    num, den = num // g, den // g
    return num * (1 / den.lead()), den.monic()


def _over(a, b):
    """a / b for pairs, b nonzero."""
    return _lowest(a[0] * b[1], a[1] * b[0])


def _minus(a, c, b):
    """a - c b for pairs."""
    return _lowest(a[0] * c[1] * b[1] - c[0] * b[0] * a[1],
                   a[1] * c[1] * b[1])


def _theta_qpoly(a, b):
    """x^a d^b moved to weight zero, prod_{min(b - a, 0) <= t < b} (theta - t)."""
    poly = QPoly.const(1)
    for t in range(min(b - a, 0), b):
        poly = poly * QPoly((-t, 1))
    return poly


def field_indicial_polynomial(lifts, rank):
    """The monic b-function of the weight filtration, over Q[theta].

    lifts are derham._v_lifts data (stair, weight, terms).  Each lift's
    initial terms become a row of QPolys; the rows are triangularized by
    euclidean elimination per column with division over Q, and b is the
    lcm of the denominators of the back substitution over Q(theta) solving
    each e_j over the pivots.  None when a column has no pivot.
    """
    rows = []
    for _stair, w, terms in lifts:
        row = [QPoly() for _ in range(rank)]
        for (comp, a, b, _e), c in terms.items():
            if b[0] - a[0] == w:
                row[comp] = row[comp] + _theta_qpoly(a[0], b[0]) * c
        rows.append(row)
    rem, pivots = rows, []
    for col in range(rank):
        active = [r for r in rem if not r[col].is_zero()]
        inactive = [r for r in rem if r[col].is_zero()]
        while len(active) > 1:
            active.sort(key=lambda r: r[col].degree())
            base, nxt = active[0], []
            for r in active[1:]:
                q = r[col] // base[col]
                reduced = [r[j] - q * base[j] for j in range(rank)]
                (inactive if reduced[col].is_zero() else nxt).append(reduced)
            active = [base] + nxt
        if not active:
            return None
        pivots.append(active[0])
        rem = inactive
    acc = QPoly.const(Fraction(1))
    for j in range(rank):
        target = [_field(1 if t == j else 0) for t in range(rank)]
        for col in range(rank):
            c = _over(target[col], (pivots[col][col], _Q1))
            if not c[0].is_zero():
                for t in range(col, rank):
                    target[t] = _minus(target[t], c, (pivots[col][t], _Q1))
                acc = acc.lcm(c[1])
        if not all(t[0].is_zero() for t in target):
            raise AssertionError("back substitution left a remainder")
    return acc.monic()


def field_rank(matrix):
    """Rank of a matrix of RatFuncs, Fractions or ints by Gaussian
    elimination over Q(z)."""
    rows = [[_field(v) for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows[rank:] if not r[col][0].is_zero()),
                     None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows.insert(rank, pivot)
        for r in rows[rank + 1:]:
            c = _over(r[col], pivot[col])
            if not c[0].is_zero():
                r[:] = [_minus(a, c, b) for a, b in zip(r, pivot)]
        rank += 1
    return rank


def freevec_colon_z(gens, rank):
    """(N : z) over ZP, on FreeVecs: intersect with z F, divide by z."""
    gens = [g for g in gens if g.terms]
    if not gens:
        return []
    n = gens[0].n
    doubled = [g.embed(2 * rank, 0) + g.embed(2 * rank, rank) for g in gens]
    z0 = (0,) * n
    for j in range(rank):
        doubled.append(FreeVec(n, ZP, 2 * rank,
                               {(rank + j, z0, z0, 1): Fraction(1)}))
    out = []
    for g in buchberger(doubled, pot_block_order(n, rank)).elements:
        if g.support_comps() <= set(range(rank)):
            if any(e < 1 for _c, _a, _b, e in g.terms):
                raise AssertionError("element of z F with a z-free term")
            out.append(FreeVec(n, ZP, rank, {(c, a, b, e - 1): v for
                                             (c, a, b, e), v in
                                             g.terms.items()}))
    return out


def freevec_saturate_z(gens, rank):
    """(N : z^infinity) on FreeVecs: colons until the basis repeats."""
    current = [g for g in gens if g.terms]
    if not current:
        return []
    known = set(buchberger(current, bernstein_order(current[0].n)).elements)
    while True:
        nxt = freevec_colon_z(current, rank)
        if set(nxt) == known:
            return nxt
        current, known = nxt, set(nxt)


def freevec_reduce_mod_z(rows):
    """The nonzero rows of ZP FreeVecs with each entry reduced mod z."""
    out = [r.map_entries(reduce_element_mod_z) for r in rows]
    return [r for r in out if r.terms]


def kunneth_reference(P, i):
    """The Kunneth terms of a saturated P with every term computed.

    (a) the integral Ext^i reduced mod z, (b) Ext^i of the reduction and
    (c) the z-torsion of the integral Ext^(i+1), as the preimage of its
    colon rows, reduced mod z.  The Ext modules are those of a new module
    on the rows of P, so none is shared with the Ext that P keeps.
    """
    M = PresentedModule(P.n, ZP, P.side, P.rank, P._kernel)
    E = ext(i, M)
    term_a = _reduced_module(E.side, E._kernel)
    term_b = ext(i, _reduced_module(P.side, P._kernel))
    Enext = ext(i + 1, M)
    relations = Enext._kernel
    torsion = _colon(relations)
    m = len(torsion.rows)
    preimage = _preimage(torsion.stacked(relations), m) if m else \
        _Rows(P.n, ZP, 0, relations.layout, [])
    term_c = _reduced_module(Enext.side, preimage)
    return KunnethReport(i, term_a, term_b, term_c)
