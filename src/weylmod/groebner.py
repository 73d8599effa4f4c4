"""
Left Groebner bases for submodules of free modules over W_n.

Module monomials are keys (comp, alpha, beta, e).  Orders are realized as
sort keys: larger key = more leading.  The engine runs Buchberger with the
normal selection strategy and no pair criteria: the product criterion is
unsound in algebras with nontrivial commutators, and skipping the chain
criterion keeps every S-pair available for the Schreyer syzygy
construction.  All basis elements are kept monic, so over the ZP tag every
computed object stays z-integral (leading coefficients are rational).

Termination note: the V-order used for restriction is not a well-order on
all monomials, only on the h-homogeneous elements the caller feeds it; the
engine asserts homogeneity there.
"""

from fractions import Fraction

from ._linalg import add_terms
from .errors import RankMismatch
from .weyl import (H1, QQ, ZP, WeylAlgebra, WeylElement, _one,
                   _product_items, _sub_idx, _zero_index)


class FreeVec:
    """Element of a free module W^rank, sparse over (comp, alpha, beta, e)."""

    __slots__ = ("n", "ring", "rank", "terms")

    def __init__(self, n, ring, rank, terms):
        cleaned = {k: c for k, c in terms.items() if c}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("FreeVec is immutable")

    @staticmethod
    def zero(n, ring, rank):
        return FreeVec(n, ring, rank, {})

    @staticmethod
    def from_entries(entries, rank=None):
        entries = list(entries)
        if not entries:
            raise RankMismatch("empty entry list")
        n, ring = entries[0].n, entries[0].ring
        rank = len(entries) if rank is None else rank
        terms = {}
        for i, w in enumerate(entries):
            for (a, b, e), c in w.terms.items():
                terms[(i, a, b, e)] = c
        return FreeVec(n, ring, rank, terms)

    @staticmethod
    def unit(n, ring, rank, comp):
        z0 = _zero_index(n)
        return FreeVec(n, ring, rank, {(comp, z0, z0, 0): _one(ring)})

    def entries(self):
        A = WeylAlgebra(self.n, self.ring)
        out = [dict() for _ in range(self.rank)]
        for (comp, a, b, e), c in self.terms.items():
            out[comp][(a, b, e)] = c
        return [WeylElement(self.n, self.ring, t) if t else A.zero()
                for t in out]

    def entry(self, comp):
        t = {(a, b, e): c for (j, a, b, e), c in self.terms.items()
             if j == comp}
        return WeylElement(self.n, self.ring, t)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, FreeVec):
            return NotImplemented
        return (self.n == other.n and self.ring == other.ring
                and self.rank == other.rank and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.ring, self.rank,
                     frozenset(self.terms.items())))

    def __add__(self, other):
        if self.rank != other.rank:
            raise RankMismatch("rank %d vs %d" % (self.rank, other.rank))
        return FreeVec(self.n, self.ring, self.rank,
                       add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return FreeVec(self.n, self.ring, self.rank,
                       {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return FreeVec.zero(self.n, self.ring, self.rank)
        return FreeVec(self.n, self.ring, self.rank,
                       {k: v * c for k, v in self.terms.items()})

    def mul_left(self, w):
        """Product w . self for w a WeylElement of the same algebra."""
        return FreeVec(self.n, self.ring, self.rank,
                       add_terms({}, _product_items(w, self.terms)))

    def mul_monomial(self, a, b, e, coeff):
        """Left multiply by a single monomial coeff * z^e x^a d^b."""
        w = WeylAlgebra(self.n, self.ring).monomial(a, b, e, coeff)
        return self.mul_left(w)

    def project(self, comps):
        """Restrict to the listed components, renumbering to 0..len-1."""
        index = {c: i for i, c in enumerate(comps)}
        out = {}
        for (comp, a, b, e), c in self.terms.items():
            if comp in index:
                out[(index[comp], a, b, e)] = c
        return FreeVec(self.n, self.ring, len(comps), out)

    def embed(self, rank, offset):
        return FreeVec(self.n, self.ring, rank,
                       {(comp + offset, a, b, e): c
                        for (comp, a, b, e), c in self.terms.items()})

    def map_entries(self, f):
        return FreeVec.from_entries([f(w) for w in self.entries()],
                                    rank=self.rank)

    def support_comps(self):
        return {k[0] for k in self.terms}

    def __repr__(self):
        return "[" + ", ".join(repr(w) for w in self.entries()) + "]"


class TermOrder:
    __slots__ = ("name", "key")

    def __init__(self, name, key):
        self.name = name
        self.key = key

    def __repr__(self):
        return "TermOrder(%s)" % self.name


def bernstein_order(n):
    """Graded reverse lex on (x, d) with z-degree tiebreak, term over position."""
    def key(mono):
        comp, a, b, e = mono
        rev = tuple(-v for v in reversed(a + b))
        return (sum(a) + sum(b), e, rev, -comp)
    return TermOrder("bernstein", key)


def pot_block_order(n, boundary):
    """Components >= boundary dominate everything below the boundary.

    A basis element whose lead sits below the boundary is supported
    entirely below it, which is the elimination property colon and
    intersection computations rely on.
    """
    def key(mono):
        comp, a, b, e = mono
        rev = tuple(-v for v in reversed(a + b))
        return (1 if comp >= boundary else 0,
                sum(a) + sum(b), e, rev, -comp)
    return TermOrder("pot-block-%d" % boundary, key)


def vres_order(n):
    """V-order along x for restriction: weight(x) = -1, weight(d) = +1.

    Only a partial well-order; sound solely on h-homogeneous input, where
    each fixed total degree carries finitely many monomials.
    """
    if n != 1:
        raise RankMismatch("V-order restriction path is n = 1 only")
    def key(mono):
        comp, a, b, e = mono
        return (b[0] - a[0], a[0] + b[0], e, -comp)
    return TermOrder("vres", key)


def leading_term(v, order):
    key = max(v.terms, key=order.key)
    return key, v.terms[key]


def _divides(m1, m2):
    """Does monomial m1 divide m2 (same component, smaller exponents)."""
    c1, a1, b1, e1 = m1
    c2, a2, b2, e2 = m2
    if c1 != c2 or e1 > e2:
        return False
    return all(x <= y for x, y in zip(a1, a2)) and \
        all(x <= y for x, y in zip(b1, b2))


def _is_homogeneous(v):
    degs = {sum(a) + sum(b) + e for (_c, a, b, e) in v.terms}
    return len(degs) <= 1


def left_normal_form(v, basis, order, track=False):
    """Remainder of left division of v by the monic elements of basis.

    With track=True also returns the quotients as a FreeVec over
    W^len(basis), so that v = sum_k q_k basis[k] + remainder.
    """
    if isinstance(basis, GBasis):
        basis = basis.elements
    for g in basis:
        if g and g.rank != v.rank:
            raise RankMismatch("vector rank %d vs basis rank %d"
                               % (v.rank, g.rank))
    n, ring = v.n, v.ring
    if ring == H1:
        assert _is_homogeneous(v) and all(_is_homogeneous(g) for g in basis)
    leads = [leading_term(g, order) if g else None for g in basis]
    rem = {}
    quot = {} if track else None
    p = v
    while p.terms:
        mono = max(p.terms, key=order.key)
        c = p.terms[mono]
        hit = None
        for k, lt in enumerate(leads):
            if lt is not None and _divides(lt[0], mono):
                hit = k
                break
        if hit is None:
            rem[mono] = c
            t = dict(p.terms)
            del t[mono]
            p = FreeVec(n, ring, v.rank, t)
            continue
        (gc, ga, gb, ge), glc = leads[hit]
        qa = _sub_idx(mono[1], ga)
        qb = _sub_idx(mono[2], gb)
        qe = mono[3] - ge
        qc = c / glc
        p = p - basis[hit].mul_monomial(qa, qb, qe, qc)
        if track:
            add_terms(quot, [((hit, qa, qb, qe), qc)])
    r = FreeVec(n, ring, v.rank, rem)
    if track:
        return r, FreeVec(n, ring, len(basis), quot)
    return r


class GBasis:
    """A monic, inter-reduced left Groebner basis with optional transform.

    transform[i] expresses elements[i] over the original generator list;
    lifts[j] expresses original generator j over elements.  stats carries
    engine counters for reporting.
    """

    __slots__ = ("n", "ring", "rank", "order", "elements", "transform",
                 "lifts", "stats")

    def __init__(self, n, ring, rank, order, elements, transform=None,
                 lifts=None, stats=None):
        self.n = n
        self.ring = ring
        self.rank = rank
        self.order = order
        self.elements = elements
        self.transform = transform
        self.lifts = lifts
        self.stats = stats or {}

    def contains(self, v):
        return left_normal_form(v, self.elements, self.order).is_zero()

    def is_full_module(self):
        return all(self.contains(FreeVec.unit(self.n, self.ring,
                                              self.rank, j))
                   for j in range(self.rank))


def _spair_data(gi, gj, order):
    (ci, ai, bi, ei), _ = leading_term(gi, order)
    (cj, aj, bj, ej), _ = leading_term(gj, order)
    if ci != cj:
        return None
    A = tuple(max(x, y) for x, y in zip(ai, aj))
    B = tuple(max(x, y) for x, y in zip(bi, bj))
    E = max(ei, ej)
    return (ci, A, B, E), (_sub_idx(A, ai), _sub_idx(B, bi), E - ei), \
        (_sub_idx(A, aj), _sub_idx(B, bj), E - ej)


COUNTERS = {"buchberger_calls": 0, "spairs": 0, "basis_elements": 0}


def reset_counters():
    for key in COUNTERS:
        COUNTERS[key] = 0


def buchberger(gens, order, track=False):
    """Left Groebner basis of the row span of gens, normal pair selection."""
    COUNTERS["buchberger_calls"] += 1
    gens = list(gens)
    nonzero = [(i, g) for i, g in enumerate(gens) if g and g.terms]
    if not nonzero:
        first = gens[0] if gens else None
        n = first.n if first else 1
        ring = first.ring if first else QQ
        rank = first.rank if first else 1
        return GBasis(n, ring, rank, order, [],
                      transform=[] if track else None,
                      lifts=[FreeVec.zero(n, ring, len(gens))
                             for _ in gens] if track else None,
                      stats={"spairs": 0, "reductions_to_zero": 0,
                             "basis_size": 0})
    n = nonzero[0][1].n
    ring = nonzero[0][1].ring
    rank = nonzero[0][1].rank
    src = len(gens)

    basis = []
    trans = [] if track else None

    def push(v, rep):
        _, lc = leading_term(v, order)
        inv = _one(ring) / lc
        basis.append(v.scale(inv))
        if track:
            trans.append(rep.scale(inv))

    for i, g in nonzero:
        push(g, FreeVec.unit(n, ring, src, i) if track else None)

    stats = {"spairs": 0, "reductions_to_zero": 0}
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]

    def pair_key(ij):
        data = _spair_data(basis[ij[0]], basis[ij[1]], order)
        if data is None:
            return (0,)
        return (1,) + tuple(order.key(data[0]))

    while pairs:
        pairs.sort(key=pair_key)
        i, j = pairs.pop(0)
        data = _spair_data(basis[i], basis[j], order)
        if data is None:
            continue
        _, (qa_i, qb_i, qe_i), (qa_j, qb_j, qe_j) = data
        one = _one(ring)
        sp = basis[i].mul_monomial(qa_i, qb_i, qe_i, one) \
            - basis[j].mul_monomial(qa_j, qb_j, qe_j, one)
        stats["spairs"] += 1
        if track:
            rem, q = left_normal_form(sp, basis, order, track=True)
        else:
            rem = left_normal_form(sp, basis, order)
            q = None
        if rem.is_zero():
            stats["reductions_to_zero"] += 1
            continue
        rep = None
        if track:
            rep = trans[i].mul_monomial(qa_i, qb_i, qe_i, one) \
                - trans[j].mul_monomial(qa_j, qb_j, qe_j, one)
            for (k, a, b, e), c in q.terms.items():
                rep = rep - trans[k].mul_monomial(a, b, e, c)
        push(rem, rep)
        new = len(basis) - 1
        pairs.extend((k, new) for k in range(new))

    basis, trans = _interreduce(basis, trans, order, n, ring, rank)

    lifts = None
    if track:
        lifts = []
        for g in gens:
            if g and g.terms:
                rem, q = left_normal_form(g, basis, order, track=True)
                assert rem.is_zero()
                lifts.append(q)
            else:
                lifts.append(FreeVec.zero(n, ring, len(basis)))
    stats["basis_size"] = len(basis)
    COUNTERS["spairs"] += stats["spairs"]
    COUNTERS["basis_elements"] += len(basis)
    return GBasis(n, ring, rank, order, basis, transform=trans,
                  lifts=lifts, stats=stats)


def _interreduce(basis, trans, order, n, ring, rank):
    """Keep minimal leads, then tail-reduce each element against the rest."""
    keep = []
    for i, g in enumerate(basis):
        lt_i = leading_term(g, order)[0]
        redundant = False
        for j, h in enumerate(basis):
            if i == j:
                continue
            lt_j = leading_term(h, order)[0]
            if _divides(lt_j, lt_i) and (lt_i != lt_j or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(i)
    basis2 = [basis[i] for i in keep]
    trans2 = [trans[i] for i in keep] if trans is not None else None
    changed = True
    while changed:
        changed = False
        for i in range(len(basis2)):
            others = basis2[:i] + basis2[i + 1:]
            if trans2 is not None:
                rem, q = left_normal_form(basis2[i], others, order,
                                          track=True)
            else:
                rem = left_normal_form(basis2[i], others, order)
                q = None
            if rem != basis2[i]:
                changed = True
                assert rem.terms, "interreduction killed a minimal lead"
                _, lc = leading_term(rem, order)
                inv = _one(ring) / lc
                if trans2 is not None:
                    rep = trans2[i]
                    for (k, a, b, e), c in q.terms.items():
                        kk = k if k < i else k + 1
                        rep = rep - trans2[kk].mul_monomial(a, b, e, c)
                    trans2[i] = rep.scale(inv)
                basis2[i] = rem.scale(inv)
    return basis2, trans2


def syzygy_module(gb):
    """Schreyer generators of the left syzygies of gb.elements."""
    basis = gb.elements
    m = len(basis)
    order = gb.order
    out = []
    one = _one(gb.ring)
    for j in range(m):
        for i in range(j):
            data = _spair_data(basis[i], basis[j], order)
            if data is None:
                continue
            _, (qa_i, qb_i, qe_i), (qa_j, qb_j, qe_j) = data
            sp = basis[i].mul_monomial(qa_i, qb_i, qe_i, one) \
                - basis[j].mul_monomial(qa_j, qb_j, qe_j, one)
            rem, q = left_normal_form(sp, basis, order, track=True)
            assert rem.is_zero(), "input to syzygy_module was not a basis"
            syz = FreeVec.unit(gb.n, gb.ring, m, i) \
                .mul_monomial(qa_i, qb_i, qe_i, one) \
                - FreeVec.unit(gb.n, gb.ring, m, j) \
                .mul_monomial(qa_j, qb_j, qe_j, one) - q
            if syz.terms:
                out.append(syz)
    return out


def apply_row(u, rows, rank):
    """u . rows for u over W^len(rows): the combination sum u_k rows[k]."""
    first = None
    for r in rows:
        if r is not None:
            first = r
            break
    if first is None:
        return FreeVec.zero(u.n, u.ring, rank)
    acc = FreeVec.zero(u.n, u.ring, rank)
    for k, w in enumerate(u.entries()):
        if w.terms and rows[k].terms:
            acc = acc + rows[k].mul_left(w)
    return acc


def syz_of_list(gens, order=None):
    """Syzygies of an arbitrary generator list, via a tracked basis.

    Rows are {sigma . T} for sigma in Syz(basis) together with the rows of
    (Id - lifts . transform); both families vanish on gens and together
    they generate everything that does.
    """
    gens = list(gens)
    if not gens:
        return []
    n, ring, rank = gens[0].n, gens[0].ring, gens[0].rank
    if order is None:
        order = bernstein_order(n)
    gb = buchberger(gens, order, track=True)
    s = len(gens)
    out = []
    for sig in syzygy_module(gb):
        row = apply_row(sig, gb.transform, s)
        if row.terms:
            out.append(row)
    for i, g in enumerate(gens):
        row = FreeVec.unit(n, ring, s, i) - apply_row(gb.lifts[i],
                                                      gb.transform, s)
        if row.terms:
            out.append(row)
    return out


class FreeResolution:
    """matrices[k]: rows presenting the kernel of the previous stage.

    ranks[k] is the rank of the k-th free module; matrices[k] has rows of
    rank ranks[k] and there are ranks[k+1] of them.
    """

    __slots__ = ("matrices", "ranks")

    def __init__(self, matrices, ranks):
        self.matrices = matrices
        self.ranks = ranks

    def length(self):
        return len(self.matrices)


def free_resolution(rows, rank, max_length):
    """Iterated syzygies of a presentation, stopping at the zero kernel."""
    matrices = [list(rows)]
    ranks = [rank, len(rows)]
    current = list(rows)
    while len(matrices) < max_length + 1:
        if not current or all(not r.terms for r in current):
            break
        syz = syz_of_list(current)
        if not syz:
            break
        matrices.append(syz)
        ranks.append(len(syz))
        current = syz
    return FreeResolution(matrices, ranks)


def preimage_rows(arows, brows, rank):
    """Generators of {u : u . arows lies in the row span of brows}.

    Computed from syzygies of the stacked list: a relation
    u . A + v . B = 0 exactly exhibits u . A inside span(B).
    """
    arows = list(arows)
    brows = list(brows)
    if not arows:
        return []
    n, ring = arows[0].n, arows[0].ring
    stacked = arows + brows
    out = []
    seen = set()
    for syz in syz_of_list(stacked):
        u = syz.project(list(range(len(arows))))
        if u.terms and u not in seen:
            seen.add(u)
            out.append(u)
    return out


def colon_z(gens, rank):
    """One colon step (N : z) over ZP: intersect with z F, divide by z."""
    gens = list(gens)
    if not gens:
        return []
    n, ring = gens[0].n, gens[0].ring
    assert ring == ZP
    doubled = [g.embed(2 * rank, 0) + g.embed(2 * rank, rank) for g in gens]
    z0 = _zero_index(n)
    for j in range(rank):
        doubled.append(FreeVec(n, ring, 2 * rank,
                               {(rank + j, z0, z0, 1): Fraction(1)}))
    order = pot_block_order(n, rank)
    gb = buchberger(doubled, order)
    out = []
    for g in gb.elements:
        if g.support_comps() <= set(range(rank)):
            shifted = {}
            for (comp, a, b, e), c in g.terms.items():
                assert e >= 1, "element of z F with a z-free term"
                shifted[(comp, a, b, e - 1)] = c
            out.append(FreeVec(n, ring, rank, shifted))
    return out


def submodule_equal(gens_a, gens_b, rank, order=None):
    gens_a = [g for g in gens_a if g.terms]
    gens_b = [g for g in gens_b if g.terms]
    if not gens_a and not gens_b:
        return True
    if not gens_a or not gens_b:
        return False
    n = gens_a[0].n
    if order is None:
        order = bernstein_order(n)
    gb_a = buchberger(gens_a, order)
    gb_b = buchberger(gens_b, order)
    return all(gb_a.contains(g) for g in gens_b) and \
        all(gb_b.contains(g) for g in gens_a)


def saturate_z(gens, rank):
    """(N : z^infinity) over ZP, by iterating the colon step to a fixed point."""
    current = [g for g in gens if g.terms]
    if not current:
        return []
    order = bernstein_order(current[0].n)
    while True:
        nxt = colon_z(current, rank)
        # N lies in (N : z) always, so one containment decides the fixed point
        gb = buchberger(current, order)
        if all(gb.contains(g) for g in nxt):
            return nxt
        current = nxt
