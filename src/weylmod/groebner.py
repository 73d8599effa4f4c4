"""
Left Groebner bases for submodules of free modules over W_n.

Module monomials are keys (comp, alpha, beta, e).  Orders are realized as
sort keys: larger key = more leading.  The engine runs Buchberger with the
normal selection strategy and no pair criteria: the product criterion is
unsound in algebras with nontrivial commutators, and skipping the chain
criterion keeps every S-pair available for the Schreyer syzygy
construction.

Inside the kernel a row over QQ, ZP or H1 is a sparse dict of integers:
denominators are cleared once, at input, and a row that joins the basis
is divided by its content and given a positive lead.  Reduction is
fraction-free: cancelling a term against a lead scales the remainder
instead of dividing, and the product of the scales travels with the
result.  QZ rows keep RatFunc coefficients, are monic, and run the same
loop with scale 1.  Rows become monic Fraction rows only where they leave
the kernel (GBasis elements, transform, lifts, syzygies and remainders),
so over the ZP tag every computed object stays z-integral (leading
coefficients are rational).

Each basis element's lead monomial is found once, when it joins the
basis, and travels with it as GBasis.leads.  Pending pairs wait in a heap
keyed by the order key of their lcm, with the sequence number of the pair
as tiebreak; basis elements never change once pushed, so the heap pops
pairs in exactly the order of a stable sort by lcm, and the transform,
lifts and syzygies do not depend on how the queue is kept.  Normal forms
reduce one mutable sparse dict.  Interreduction is one pass: tail
reduction never changes a lead monomial, so an element reduced against
the other leads stays reduced while the rest are.

Termination note: the V-order used for restriction is not a well-order on
all monomials, only on the h-homogeneous elements the caller feeds it; the
engine checks homogeneity of each basis element as its lead is cached, and
of the input to left_normal_form, and raises InternalInvariant otherwise.
"""

from fractions import Fraction
from heapq import heappop, heappush
from itertools import count
from math import gcd, lcm
from operator import le

from ._linalg import add_terms, primitive
from .errors import InternalInvariant, RankMismatch, UnsupportedAmbient
from .weyl import (H1, QQ, QZ, ZP, WeylAlgebra, WeylElement, _one,
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
                       add_terms({}, _product_items(w.terms, self.terms,
                                                    self.ring == H1)))

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


def _require_homogeneous(rows):
    """The V-order is a well-order only on h-homogeneous input."""
    for row in rows:
        if len({sum(a) + sum(b) + e for (_c, a, b, e) in row}) > 1:
            raise InternalInvariant("H1 Groebner input must be "
                                    "h-homogeneous")


def _clear(terms, ring):
    """An integer row proportional to terms, and the factor that gives it.

    terms times the lcm of its denominators; a QZ row stays as it is.
    """
    if ring == QZ:
        return dict(terms), 1
    den = lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator)
            for k, c in terms.items()}, den


def _divided(terms, d):
    """The sparse row terms / d, of Fraction or RatFunc coefficients."""
    return terms if d == 1 else {k: c / d for k, c in terms.items()}


def _rational(row, den, ring, scales=None):
    """row / den as a Fraction row, component k also times scales[k].

    The one way integer rows leave the kernel.  A QZ row leaves as it is:
    QZ rows are monic, so den and every scale are 1.
    """
    if ring == QZ:
        return row
    if scales is None:
        return {k: Fraction(c, den) for k, c in row.items()}
    return {k: Fraction(c * scales[k[0]], den) for k, c in row.items()}


def _cofactors(li, lj):
    """ci, cj with ci * li = cj * lj, the least such over the integers."""
    if isinstance(li, int):
        g = gcd(li, lj)
        return lj // g, li // g
    return lj, li


def _monomial_items(q, c, row, homog):
    """Terms of c * z^e x^a d^b times the sparse row, for q = (a, b, e)."""
    return _product_items({q: c}, row, homog)


def _spoly(ri, qi, ci, rj, qj, cj, homog):
    """ci qi ri - cj qj rj, for monomials qi, qj given as (a, b, e)."""
    p = add_terms({}, _monomial_items(qi, ci, ri, homog))
    return add_terms(p, _monomial_items(qj, -cj, rj, homog))


def _minus_quotients(row, quot, rows, homog):
    """row - sum_k quot_k rows[k], for quot a sparse row over W^len(rows)."""
    out = dict(row)
    for (k, a, b, e), c in quot.items():
        add_terms(out, _monomial_items((a, b, e), -c, rows[k], homog))
    return out


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


def _reduce(p, rows, monos, order, homog, track=False):
    """Left division of the sparse row p by rows, free of fractions.

    monos[k] is the lead monomial of rows[k], or None to skip that row.
    Each step divides the current leading monomial by the first lead that
    divides it.  On integer rows a step cancelling the coefficient c
    against the lead coefficient l first scales the running remainder by
    l / gcd(c, l).  Returns the remainder r, the product s of those scales
    (1 on RatFunc rows, which are monic) and, with track=True, the
    quotients as a sparse row over W^len(rows), so that
    s p = sum_k q_k rows[k] + r.  Order keys are memoized for the call.
    """
    keys = {}

    def key(m):
        k = keys.get(m)
        if k is None:
            k = keys[m] = order.key(m)
        return k

    p = dict(p)
    rem = {}
    quot = {} if track else None
    scaled = (p, rem, quot) if track else (p, rem)
    s = 1
    while p:
        mono = max(p, key=key)
        for hit, lm in enumerate(monos):
            if lm is not None and _divides(lm, mono):
                break
        else:
            rem[mono] = p.pop(mono)
            continue
        row = rows[hit]
        c, lc = p[mono], row[lm]
        if isinstance(c, int):
            g = gcd(c, lc)
            m, c = lc // g, c // g
            if m != 1:
                s *= m
                for terms in scaled:
                    for k in terms:
                        terms[k] *= m
        else:
            c = c / lc
        q = (_sub_idx(mono[1], lm[1]), _sub_idx(mono[2], lm[2]),
             mono[3] - lm[3])
        add_terms(p, _monomial_items(q, -c, row, homog))
        if track:
            add_terms(quot, [((hit,) + q, c)])
    return rem, s, quot


def _to_kernel(vecs, monos, ring):
    """Primitive integer (or monic RatFunc) rows of vecs, None for zero."""
    return [primitive(_clear(v.terms, ring)[0], m)[0] if m is not None
            else None for v, m in zip(vecs, monos)]


def left_normal_form(v, basis, order):
    """Remainder of left division of v by the elements of basis.

    basis is a list of FreeVec or a GBasis; a GBasis computed under order
    lends its cached leads and kernel rows.
    """
    rows = None
    if isinstance(basis, GBasis):
        if order is basis.order:
            monos = [m for m, _c in basis.leads]
            rows = basis._kernel_rows()
        basis = basis.elements
    for g in basis:
        if g and g.rank != v.rank:
            raise RankMismatch("vector rank %d vs basis rank %d"
                               % (v.rank, g.rank))
    if v.ring == H1:
        _require_homogeneous([v.terms] if rows is not None
                             else [v.terms] + [g.terms for g in basis])
    if rows is None:
        monos = [leading_term(g, order)[0] if g else None for g in basis]
        rows = _to_kernel(basis, monos, v.ring)
    row, den = _clear(v.terms, v.ring)
    rem, s, _q = _reduce(row, rows, monos, order, v.ring == H1)
    return FreeVec(v.n, v.ring, v.rank, _rational(rem, s * den, v.ring))


class GBasis:
    """A monic, inter-reduced left Groebner basis with optional transform.

    transform[i] expresses elements[i] over the original generator list;
    lifts[j] expresses original generator j over elements.  leads[i] is
    leading_term(elements[i], order), computed once (here when not
    given).  stats carries engine counters for reporting.
    """

    __slots__ = ("n", "ring", "rank", "order", "elements", "leads",
                 "transform", "lifts", "stats", "_rows")

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
        self._rows = None

    def _kernel_rows(self):
        """The elements as the kernel reduces them (see _linalg.primitive).

        buchberger hands over the rows it built; a basis built by hand
        computes its own on first use.
        """
        if self._rows is None:
            self._rows = _to_kernel(self.elements,
                                    [m for m, _c in self.leads], self.ring)
        return self._rows

    def contains(self, v):
        return left_normal_form(v, self, self.order).is_zero()

    def is_full_module(self):
        """The span is W^rank exactly when every component has a unit lead.

        A unit lead divides every monomial of its component, so in a
        reduced basis its element is the unit vector itself.
        """
        z0 = _zero_index(self.n)
        leads = {m for m, _c in self.leads}
        return all((j, z0, z0, 0) in leads for j in range(self.rank))


COUNTERS = {"buchberger_calls": 0, "spairs": 0, "basis_elements": 0}


def reset_counters():
    for key in COUNTERS:
        COUNTERS[key] = 0


def buchberger(gens, order, track=False):
    """Left Groebner basis of the row span of gens, normal pair selection."""
    COUNTERS["buchberger_calls"] += 1
    gens = list(gens)
    # an empty list names no ambient; W_1 over QQ of rank 1 stands in
    first = gens[0] if gens else FreeVec.zero(1, QQ, 1)
    n, ring, rank = first.n, first.ring, first.rank
    homog = ring == H1
    src = len(gens)

    rows = []
    monos = []
    trans = [] if track else None
    pairs = []
    seq = count()

    def push(row, rep):
        if homog:
            _require_homogeneous([row])
        mono = max(row, key=order.key)
        new = len(rows)
        for k, m in enumerate(monos):
            data = _lcm_multipliers(m, mono)
            if data is not None:
                heappush(pairs, (order.key(data[0]), next(seq), k, new,
                                 data[1], data[2]))
        row, d = primitive(row, mono)
        rows.append(row)
        monos.append(mono)
        if track:
            trans.append(_divided(rep, d))

    z0 = _zero_index(n)
    for i, g in enumerate(gens):
        if g.terms:
            row, den = _clear(g.terms, ring)
            push(row, {(i, z0, z0, 0): _one(ring) * den} if track else None)

    stats = {"spairs": 0, "reductions_to_zero": 0}
    while pairs:
        _key, _seq, i, j, qi, qj = heappop(pairs)
        ci, cj = _cofactors(rows[i][monos[i]], rows[j][monos[j]])
        sp = _spoly(rows[i], qi, ci, rows[j], qj, cj, homog)
        stats["spairs"] += 1
        rem, s, q = _reduce(sp, rows, monos, order, homog, track)
        if not rem:
            stats["reductions_to_zero"] += 1
            continue
        rep = None
        if track:
            rep = _minus_quotients(_spoly(trans[i], qi, s * ci, trans[j],
                                          qj, s * cj, homog), q, trans, homog)
        push(rem, rep)

    rows, monos, trans = _interreduce(rows, monos, trans, order, homog)

    lcs = [row[m] for row, m in zip(rows, monos)]
    lifts = None
    if track:
        lifts = []
        for g in gens:
            row, den = _clear(g.terms, ring)
            rem, s, q = _reduce(row, rows, monos, order, homog, True)
            if rem:
                raise InternalInvariant("a generator left a remainder on "
                                        "its own Groebner basis")
            lifts.append(FreeVec(n, ring, len(rows),
                                 _rational(q, s * den, ring, lcs)))
        trans = [FreeVec(n, ring, src, _rational(t, lc, ring))
                 for t, lc in zip(trans, lcs)]
    stats["basis_size"] = len(rows)
    COUNTERS["spairs"] += stats["spairs"]
    COUNTERS["basis_elements"] += len(rows)
    one = _one(ring)
    gb = GBasis(n, ring, rank, order,
                [FreeVec(n, ring, rank, _rational(row, lc, ring))
                 for row, lc in zip(rows, lcs)],
                transform=trans, lifts=lifts, stats=stats,
                leads=[(m, one) for m in monos])
    gb._rows = rows
    return gb


def _interreduce(rows, monos, trans, order, homog):
    """Keep minimal leads, then tail-reduce each row against the rest.

    No other kept lead divides a kept lead, so tail reduction leaves every
    lead in place (scaled by the s of _reduce).  The leads never change,
    so a row reduced once stays reduced and one pass suffices.
    """
    keep = [i for i, mi in enumerate(monos)
            if not any(j != i and _divides(mj, mi) and (mi != mj or j < i)
                       for j, mj in enumerate(monos))]
    rows = [rows[i] for i in keep]
    monos = [monos[i] for i in keep]
    if trans is not None:
        trans = [trans[i] for i in keep]
    for i, row in enumerate(rows):
        own, monos[i] = monos[i], None
        rem, s, q = _reduce(row, rows, monos, order, homog,
                            trans is not None)
        rows[i], d = primitive(rem, own)
        if trans is not None:
            t = trans[i] if s == 1 else {k: c * s
                                         for k, c in trans[i].items()}
            trans[i] = _divided(_minus_quotients(t, q, trans, homog), d)
        monos[i] = own
    return rows, monos, trans


def syzygy_module(gb):
    """Schreyer generators of the left syzygies of gb.elements."""
    rows, monos = gb._kernel_rows(), [m for m, _c in gb.leads]
    lcs = [row[m] for row, m in zip(rows, monos)]
    homog = gb.ring == H1
    z0 = _zero_index(gb.n)
    out = []
    for j in range(len(rows)):
        for i in range(j):
            data = _lcm_multipliers(monos[i], monos[j])
            if data is None:
                continue
            _, qi, qj = data
            ci, cj = _cofactors(lcs[i], lcs[j])
            rem, s, q = _reduce(_spoly(rows[i], qi, ci, rows[j], qj, cj,
                                       homog), rows, monos, gb.order, homog,
                                True)
            if rem:
                raise InternalInvariant("input to syzygy_module was not a "
                                        "Groebner basis")
            # s (ci qi e_i - cj qj e_j) - q kills rows; with component k
            # times lcs[k] it kills the elements, and over s ci lcs[i]
            # its term qi e_i has coefficient 1
            syz = _spoly({(i, z0, z0, 0): s}, qi, ci, {(j, z0, z0, 0): s},
                         qj, cj, homog)
            add_terms(syz, ((k, -c) for k, c in q.items()))
            if syz:
                out.append(FreeVec(gb.n, gb.ring, len(rows), _rational(
                    syz, s * ci * lcs[i], gb.ring, lcs)))
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
    homog = ring == H1
    gb = buchberger(gens, bernstein_order(n), track=True)
    s = len(gens)
    trans = [t.terms for t in gb.transform]
    rows = [_minus_quotients({}, {k: -c for k, c in sig.terms.items()},
                             trans, homog)
            for sig in syzygy_module(gb)]
    z0 = _zero_index(n)
    rows += [_minus_quotients({(i, z0, z0, 0): _one(ring)}, lift.terms,
                              trans, homog)
             for i, lift in enumerate(gb.lifts)]
    return [FreeVec(n, ring, s, row) for row in rows if row]


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
