"""
Left Groebner bases for submodules of free modules over W_n.

Module monomials are keys (comp, alpha, beta, e).  Orders are realized as
sort keys: larger key = more leading.  The engine runs Buchberger with the
normal selection strategy and no pair criteria: the product criterion is
unsound in algebras with nontrivial commutators, and skipping the chain
criterion keeps every S-pair available for the Schreyer syzygy
construction.  All basis elements are kept monic, so over the ZP tag every
computed object stays z-integral (leading coefficients are rational).

Each basis element's leading term is computed once, when it joins the
basis, and travels with it as GBasis.leads.  Pending pairs wait in a heap
keyed by the order key of their lcm, with the sequence number of the pair
as tiebreak; basis elements never change once pushed, so the heap pops
pairs in exactly the order of a stable sort by lcm, and the transform,
lifts and syzygies do not depend on how the queue is kept.  Normal forms
reduce one mutable sparse dict.

Termination note: the V-order used for restriction is not a well-order on
all monomials, only on the h-homogeneous elements the caller feeds it; the
engine checks homogeneity of each basis element as its lead is cached, and
of the input to left_normal_form, and raises InternalInvariant otherwise.
"""

from fractions import Fraction
from heapq import heappop, heappush
from itertools import count
from operator import le

from ._linalg import add_terms
from .errors import InternalInvariant, RankMismatch, UnsupportedAmbient
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
    return c1 == c2 and e1 <= e2 and all(map(le, a1, a2)) and \
        all(map(le, b1, b2))


def _require_homogeneous(vecs):
    """The V-order is a well-order only on h-homogeneous input."""
    for v in vecs:
        if len({sum(a) + sum(b) + e for (_c, a, b, e) in v.terms}) > 1:
            raise InternalInvariant("H1 Groebner input must be "
                                    "h-homogeneous")


def _monomial_items(q, c, v):
    """Terms of c * z^e x^a d^b times the FreeVec v, for q = (a, b, e)."""
    return _product_items(WeylElement(v.n, v.ring, {q: c}), v.terms)


def _spoly(vi, qi, vj, qj):
    """qi * vi - qj * vj for monomials qi, qj given as (a, b, e)."""
    one = _one(vi.ring)
    terms = add_terms({}, _monomial_items(qi, one, vi))
    return FreeVec(vi.n, vi.ring, vi.rank,
                   add_terms(terms, _monomial_items(qj, -one, vj)))


def _minus_quotients(v, quot, rows):
    """v - sum_k quot_k rows[k], for quot a FreeVec over W^len(rows)."""
    terms = dict(v.terms)
    for (k, a, b, e), c in quot.terms.items():
        add_terms(terms, _monomial_items((a, b, e), -c, rows[k]))
    return FreeVec(v.n, v.ring, v.rank, terms)


def _lcm_multipliers(mi, mj):
    """The lcm of two lead monomials and the (a, b, e) lifting each to it.

    None when the leads sit in different components: such a pair has no
    S-polynomial.
    """
    ci, ai, bi, ei = mi
    cj, aj, bj, ej = mj
    if ci != cj:
        return None
    A = tuple(map(max, ai, aj))
    B = tuple(map(max, bi, bj))
    E = max(ei, ej)
    return (ci, A, B, E), (_sub_idx(A, ai), _sub_idx(B, bi), E - ei), \
        (_sub_idx(A, aj), _sub_idx(B, bj), E - ej)


def _reduce(v, basis, leads, order, track=False):
    """left_normal_form with leads[k] = leading_term(basis[k], order) given.

    The running remainder is one mutable dict; order keys are memoized for
    the length of the call.  Each step divides by the first basis element
    whose lead divides the current leading monomial.  With track=True also
    returns the quotients as a FreeVec over W^len(basis), so that
    v = sum_k q_k basis[k] + remainder.
    """
    keys = {}

    def key(m):
        k = keys.get(m)
        if k is None:
            k = keys[m] = order.key(m)
        return k

    p = dict(v.terms)
    rem = {}
    quot = {} if track else None
    while p:
        mono = max(p, key=key)
        for hit, lt in enumerate(leads):
            if lt is not None and _divides(lt[0], mono):
                break
        else:
            rem[mono] = p.pop(mono)
            continue
        (_gc, ga, gb, ge), glc = lt
        q = (_sub_idx(mono[1], ga), _sub_idx(mono[2], gb), mono[3] - ge)
        qc = p[mono] / glc
        add_terms(p, _monomial_items(q, -qc, basis[hit]))
        if track:
            add_terms(quot, [((hit,) + q, qc)])
    r = FreeVec(v.n, v.ring, v.rank, rem)
    if track:
        return r, FreeVec(v.n, v.ring, len(basis), quot)
    return r


def left_normal_form(v, basis, order):
    """Remainder of left division of v by the monic elements of basis.

    basis is a list of FreeVec or a GBasis; a GBasis computed under order
    lends its cached leads.
    """
    leads = None
    if isinstance(basis, GBasis):
        if order is basis.order:
            leads = basis.leads
        basis = basis.elements
    for g in basis:
        if g and g.rank != v.rank:
            raise RankMismatch("vector rank %d vs basis rank %d"
                               % (v.rank, g.rank))
    if v.ring == H1:
        _require_homogeneous([v] if leads is not None else [v] + basis)
    if leads is None:
        leads = [leading_term(g, order) if g else None for g in basis]
    return _reduce(v, basis, leads, order)


class GBasis:
    """A monic, inter-reduced left Groebner basis with optional transform.

    transform[i] expresses elements[i] over the original generator list;
    lifts[j] expresses original generator j over elements.  leads[i] is
    leading_term(elements[i], order), computed once (here when not
    given).  stats carries engine counters for reporting.
    """

    __slots__ = ("n", "ring", "rank", "order", "elements", "leads",
                 "transform", "lifts", "stats")

    def __init__(self, n, ring, rank, order, elements, transform=None,
                 lifts=None, stats=None, leads=None):
        self.n = n
        self.ring = ring
        self.rank = rank
        self.order = order
        self.elements = elements
        self.leads = [leading_term(g, order) for g in elements] \
            if leads is None else leads
        self.transform = transform
        self.lifts = lifts
        self.stats = stats or {}

    def contains(self, v):
        return left_normal_form(v, self, self.order).is_zero()

    def is_full_module(self):
        return all(self.contains(FreeVec.unit(self.n, self.ring,
                                              self.rank, j))
                   for j in range(self.rank))


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
    one = _one(ring)

    basis = []
    leads = []
    trans = [] if track else None
    pairs = []
    seq = count()

    def push(v, rep):
        if ring == H1:
            _require_homogeneous([v])
        mono, lc = leading_term(v, order)
        new = len(basis)
        for k, (m, _c) in enumerate(leads):
            data = _lcm_multipliers(m, mono)
            if data is not None:
                heappush(pairs, (order.key(data[0]), next(seq), k, new,
                                 data[1], data[2]))
        inv = one / lc
        g = v.scale(inv)
        basis.append(g)
        leads.append((mono, g.terms[mono]))
        if track:
            trans.append(rep.scale(inv))

    for i, g in nonzero:
        push(g, FreeVec.unit(n, ring, src, i) if track else None)

    stats = {"spairs": 0, "reductions_to_zero": 0}
    while pairs:
        _key, _seq, i, j, qi, qj = heappop(pairs)
        sp = _spoly(basis[i], qi, basis[j], qj)
        stats["spairs"] += 1
        if track:
            rem, q = _reduce(sp, basis, leads, order, track=True)
        else:
            rem = _reduce(sp, basis, leads, order)
        if rem.is_zero():
            stats["reductions_to_zero"] += 1
            continue
        rep = None
        if track:
            rep = _minus_quotients(_spoly(trans[i], qi, trans[j], qj), q,
                                   trans)
        push(rem, rep)

    basis, leads, trans = _interreduce(basis, leads, trans, order)

    lifts = None
    if track:
        lifts = []
        for g in gens:
            if g and g.terms:
                rem, q = _reduce(g, basis, leads, order, track=True)
                if rem.terms:
                    raise InternalInvariant("a generator left a remainder "
                                            "on its own Groebner basis")
                lifts.append(q)
            else:
                lifts.append(FreeVec.zero(n, ring, len(basis)))
    stats["basis_size"] = len(basis)
    COUNTERS["spairs"] += stats["spairs"]
    COUNTERS["basis_elements"] += len(basis)
    return GBasis(n, ring, rank, order, basis, transform=trans,
                  lifts=lifts, stats=stats, leads=leads)


def _interreduce(basis, leads, trans, order):
    """Keep minimal leads, then tail-reduce each element against the rest.

    No other kept lead divides a kept lead, so tail reduction leaves every
    lead in place and the cached leads stay valid.
    """
    monos = [m for m, _c in leads]
    keep = [i for i, mi in enumerate(monos)
            if not any(j != i and _divides(mj, mi) and (mi != mj or j < i)
                       for j, mj in enumerate(monos))]
    basis = [basis[i] for i in keep]
    leads = [leads[i] for i in keep]
    if trans is not None:
        trans = [trans[i] for i in keep]
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(basis):
            others = basis[:i] + basis[i + 1:]
            others_leads = leads[:i] + leads[i + 1:]
            if trans is not None:
                rem, q = _reduce(g, others, others_leads, order, track=True)
            else:
                rem = _reduce(g, others, others_leads, order)
            if rem == g:
                continue
            changed = True
            mono = leads[i][0]
            lc = rem.terms.get(mono)
            if lc is None:
                raise InternalInvariant("interreduction killed a minimal "
                                        "lead")
            inv = _one(g.ring) / lc
            if trans is not None:
                trans[i] = _minus_quotients(
                    trans[i], q, trans[:i] + trans[i + 1:]).scale(inv)
            basis[i] = rem.scale(inv)
            leads[i] = (mono, basis[i].terms[mono])
    return basis, leads, trans


def syzygy_module(gb):
    """Schreyer generators of the left syzygies of gb.elements."""
    basis, leads = gb.elements, gb.leads
    m = len(basis)
    out = []
    for j in range(m):
        for i in range(j):
            data = _lcm_multipliers(leads[i][0], leads[j][0])
            if data is None:
                continue
            _, qi, qj = data
            rem, q = _reduce(_spoly(basis[i], qi, basis[j], qj), basis,
                             leads, gb.order, track=True)
            if rem.terms:
                raise InternalInvariant("input to syzygy_module was not a "
                                        "Groebner basis")
            syz = _spoly(FreeVec.unit(gb.n, gb.ring, m, i), qi,
                         FreeVec.unit(gb.n, gb.ring, m, j), qj) - q
            if syz.terms:
                out.append(syz)
    return out


def syz_of_list(gens):
    """Syzygies of an arbitrary generator list, via a tracked basis.

    Rows are {sigma . T} for sigma in Syz(basis) together with the rows of
    (Id - lifts . transform); both families vanish on gens and together
    they generate everything that does.
    """
    gens = list(gens)
    if not gens:
        return []
    n, ring = gens[0].n, gens[0].ring
    gb = buchberger(gens, bernstein_order(n), track=True)
    s = len(gens)
    zero = FreeVec.zero(n, ring, s)
    rows = [_minus_quotients(zero, -sig, gb.transform)
            for sig in syzygy_module(gb)]
    rows += [_minus_quotients(FreeVec.unit(n, ring, s, i), lift,
                              gb.transform)
             for i, lift in enumerate(gb.lifts)]
    return [row for row in rows if row.terms]


class FreeResolution:
    """matrices[k]: rows presenting the kernel of the previous stage.

    ranks[k] is the rank of the k-th free module; matrices[k] has rows of
    rank ranks[k] and there are ranks[k+1] of them.  complete is True once
    the last stage has a zero kernel, so that no later stage exists.
    """

    __slots__ = ("matrices", "ranks", "complete")

    def __init__(self, matrices, ranks, complete):
        self.matrices = matrices
        self.ranks = ranks
        self.complete = complete


def free_resolution(rows, rank, max_length):
    """Iterated syzygies of a presentation, through stage max_length.

    Stops early at the zero kernel, and then marks the resolution complete.
    """
    matrices = [list(rows)]
    ranks = [rank, len(rows)]
    while len(matrices) <= max_length:
        current = matrices[-1]
        syz = syz_of_list(current) if any(r.terms for r in current) else []
        if not syz:
            return FreeResolution(matrices, ranks, True)
        matrices.append(syz)
        ranks.append(len(syz))
    return FreeResolution(matrices, ranks, False)


def preimage_rows(arows, brows):
    """Generators of {u : u . arows lies in the row span of brows}.

    Computed from syzygies of the stacked list: a relation
    u . A + v . B = 0 exactly exhibits u . A inside span(B).
    """
    arows = list(arows)
    brows = list(brows)
    if not arows:
        return []
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
    if ring != ZP:
        raise UnsupportedAmbient("colon by z runs over ZP")
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
                if e < 1:
                    raise InternalInvariant("element of z F with a z-free "
                                            "term")
                shifted[(comp, a, b, e - 1)] = c
            out.append(FreeVec(n, ring, rank, shifted))
    return out


def submodule_equal(gens_a, gens_b):
    gens_a = [g for g in gens_a if g.terms]
    gens_b = [g for g in gens_b if g.terms]
    if not gens_a and not gens_b:
        return True
    if not gens_a or not gens_b:
        return False
    order = bernstein_order(gens_a[0].n)
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
