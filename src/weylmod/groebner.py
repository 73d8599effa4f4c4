"""
Left Groebner bases for submodules of free modules over W_n.

Module monomials are keys (comp, alpha, beta, e) on every object this
module hands out.  Inside the kernel each is one int of a _packed.Layout,
so that a product is one integer sum, divisibility one guard-bit test
and an lcm one fieldwise max.  A kernel call starts on the narrowest
layout; when an exponent would leave its field, _packed.Overflow stops
it and it reruns on fields twice as wide (_packed.widening), so no
exponent wraps.  Orders are realized as sort keys on tuple keys, larger
key = more leading; TermOrder.packed memoizes them per layout on packed
ints.  The engine runs Buchberger with the
normal selection strategy and no pair criteria: the product criterion is
unsound in algebras with nontrivial commutators, and skipping the chain
criterion keeps every S-pair available for the Schreyer syzygy
construction.

Inside the kernel a row over QQ, ZP or H1 is a sparse dict of integers:
denominators are cleared once, at input, and a row that joins the basis
is divided by its content and given a positive lead.  Reduction is
fraction-free: each division step and the cofactors of each S-pair are
one _linalg.cancel, which scales the remainder instead of dividing, and
the product of the scales travels with the result.  QZ rows keep RatFunc
coefficients, are monic, and run the same loop with scale 1.  Rows enter
the kernel from outside only through _clear (GBasis._kernel builds its
rows so), and become monic Fraction rows on tuple keys only where they
leave it, through _rational (GBasis elements, transform, lifts, syzygies
and remainders), so over the ZP tag every computed object stays
z-integral (leading coefficients are rational).

Each basis element's lead monomial is found once, when it joins the
basis, and travels with it as GBasis.leads.  The leads of a kernel basis
are indexed by component, in basis order, so the divisor search returns
the first divisor of the basis, as a scan of all leads would.  Pending
pairs wait in a heap keyed by the order key of their lcm, with the
sequence number of the pair as tiebreak; basis elements never change
once pushed, so the heap pops pairs in exactly the order of a stable
sort by lcm, and the transform, lifts and syzygies do not depend on how
the queue is kept.  Normal forms
reduce one mutable sparse dict.  Interreduction is one pass: tail
reduction never changes a lead monomial, so an element reduced against
the other leads stays reduced while the rest are.

Termination note: the V-order used for restriction is not a well-order on
all monomials, only on the h-homogeneous elements the caller feeds it; the
engine checks homogeneity of each basis element as its lead is cached, and
of the input to left_normal_form, and raises InternalInvariant otherwise.
"""

from fractions import Fraction
from functools import cache
from heapq import heappop, heappush
from itertools import count
from math import lcm

from ._linalg import add_terms, cancel, primitive
from ._packed import envelope, layout, product, widening
from .errors import InternalInvariant, RankMismatch, UnsupportedAmbient
from .weyl import (H1, QQ, QZ, ZP, WeylAlgebra, WeylElement, _Terms,
                   _one, _zero_index)


class FreeVec(_Terms):
    """Element of a free module W^rank, sparse over (comp, alpha, beta, e)."""

    __slots__ = ("rank",)

    def __init__(self, n, ring, rank, terms):
        object.__setattr__(self, "rank", rank)
        _Terms.__init__(self, n, ring, terms)

    def _ambient(self):
        return (self.n, self.ring, self.rank)

    def _like(self, terms):
        return FreeVec(self.n, self.ring, self.rank, terms)

    def _check(self, other):
        _Terms._check(self, other)
        if self.rank != other.rank:
            raise RankMismatch("rank %d vs %d" % (self.rank, other.rank))

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
        out = [dict() for _ in range(self.rank)]
        for (comp, a, b, e), c in self.terms.items():
            out[comp][(a, b, e)] = c
        return [WeylElement(self.n, self.ring, t) for t in out]

    def mul_left(self, w):
        """Product w . self for w a WeylElement of the same algebra."""
        _Terms._check(self, w)
        return self._like(product(w.terms, self.terms, self.n,
                                  self.ring == H1))

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
    """A term order as a sort key on tuple keys, larger = more leading.

    The order factories below return one shared instance per argument,
    so the memo behind packed() serves every call under that order.
    """

    __slots__ = ("name", "key", "_packed")

    def __init__(self, name, key):
        self.name = name
        self.key = key
        self._packed = {}

    def packed(self, lay):
        """key on the packed monomials of lay, memoized per layout."""
        keys = self._packed.get(lay)
        if keys is None:
            keys = self._packed[lay] = lay.keys(self.key)
        return keys

    def __repr__(self):
        return "TermOrder(%s)" % self.name


@cache
def bernstein_order(n):
    """Graded reverse lex on (x, d) with z-degree tiebreak, term over position."""
    def key(mono):
        comp, a, b, e = mono
        rev = tuple(-v for v in reversed(a + b))
        return (sum(a) + sum(b), e, rev, -comp)
    return TermOrder("bernstein", key)


@cache
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


@cache
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


def _require_homogeneous(degrees):
    """The V-order is a well-order only on h-homogeneous input."""
    if len(set(degrees)) > 1:
        raise InternalInvariant("H1 Groebner input must be h-homogeneous")


def _clear(terms, ring, lay):
    """An integer row on packed keys proportional to terms, and the factor.

    terms times the lcm of its denominators; a QZ row keeps its
    coefficients.
    """
    enc = lay.enc
    if ring == QZ:
        return {enc[k]: c for k, c in terms.items()}, 1
    den = lcm(*(c.denominator for c in terms.values()))
    return {enc[k]: c.numerator * (den // c.denominator)
            for k, c in terms.items()}, den


def _divided(terms, d):
    """The sparse row terms / d, of Fraction or RatFunc coefficients."""
    return terms if d == 1 else {k: c / d for k, c in terms.items()}


def _rational(row, den, ring, lay, scales=None):
    """row / den as a Fraction row on tuple keys, comp k also times scales[k].

    The one way rows leave the kernel.  A QZ row keeps its coefficients:
    QZ rows are monic, so den and every scale are 1.
    """
    row = lay.unpack(row)
    if ring == QZ:
        return row
    if scales is None:
        return {k: Fraction(c, den) for k, c in row.items()}
    return {k: Fraction(c * scales[k[0]], den) for k, c in row.items()}


class _Basis:
    """Kernel rows on one layout, with their leads, envelopes and index.

    index maps a component to the (k, lead) pairs of the leads in it, in
    basis order.
    """

    __slots__ = ("layout", "rows", "leads", "envs", "index")

    def __init__(self, lay):
        self.layout = lay
        self.rows = []
        self.leads = []
        self.envs = []
        self.index = {}

    def add(self, row, lead):
        self.index.setdefault(self.layout.comp(lead), []).append(
            (len(self.rows), lead))
        self.rows.append(row)
        self.leads.append(lead)
        self.envs.append(envelope(row))


def _spoly(lay, ri, qi, ci, rj, qj, cj):
    """ci qi ri - cj qj rj, for packed monomials qi, qj of comp 0."""
    p = lay.mul_into({}, qi, ci, ri, envelope(ri))
    return lay.mul_into(p, qj, -cj, rj, envelope(rj))


def _minus_quotients(row, quot, rows, lay):
    """row - sum_k quot_k rows[k], for quot a sparse row over W^len(rows)."""
    out = dict(row)
    envs = {}
    for key, c in quot.items():
        k, q = lay.split(key)
        env = envs.get(k)
        if env is None:
            env = envs[k] = envelope(rows[k])
        lay.mul_into(out, q, -c, rows[k], env)
    return out


def _reduce(p, basis, keys, track=False):
    """Left division of the sparse row p by the rows of basis, fraction-free.

    Each step divides the current leading monomial by the first lead that
    divides it and cancels its coefficient by _linalg.cancel: on integer
    rows that first scales the running remainder by some m.  Returns the
    remainder r, the product s of those scales (1 on RatFunc rows, which
    are monic) and, with track=True, the quotients as a sparse row over
    W^len(basis.rows), so that s p = sum_k q_k rows[k] + r.  keys is the
    order's memo on the basis layout.
    """
    lay = basis.layout
    rows, envs, index = basis.rows, basis.envs, basis.index
    divisor, key = lay.divisor, keys.__getitem__
    p = dict(p)
    rem = {}
    quot = {} if track else None
    scaled = (p, rem, quot) if track else (p, rem)
    s = 1
    while p:
        mono = max(p, key=key)
        hit = divisor(index, mono)
        if hit is None:
            rem[mono] = p.pop(mono)
            continue
        k, lead, q = hit
        row = rows[k]
        m, c = cancel(p[mono], row[lead])
        if m != 1:
            s *= m
            for terms in scaled:
                for t in terms:
                    terms[t] *= m
        lay.mul_into(p, q, -c, row, envs[k])
        if track:
            add_terms(quot, [(lay.with_comp(q, k), c)])
    return rem, s, quot


def left_normal_form(v, basis, order):
    """Remainder of left division of v by the elements of basis.

    basis is a list of FreeVec or a GBasis.  A GBasis computed under order
    lends its cached leads and kernel rows; anything else becomes a GBasis
    of its nonzero elements under order.
    """
    if not (isinstance(basis, GBasis) and basis.order is order):
        elements = basis.elements if isinstance(basis, GBasis) else basis
        basis = GBasis(v.n, v.ring, v.rank, order, [g for g in elements if g])
    for g in basis.elements:
        if g.rank != v.rank:
            raise RankMismatch("vector rank %d vs basis rank %d"
                               % (v.rank, g.rank))
    if v.ring == H1:
        for row in [v.terms] + [g.terms for g in basis.elements]:
            _require_homogeneous(sum(a) + sum(b) + e for _c, a, b, e in row)

    def run(lay):
        kernel = basis._kernel(lay)
        lay = kernel.layout
        row, den = _clear(v.terms, v.ring, lay)
        rem, s, _q = _reduce(row, kernel, order.packed(lay))
        return _rational(rem, s * den, v.ring, lay)

    return FreeVec(v.n, v.ring, v.rank,
                   widening(run, layout(v.n, v.ring == H1)))


class GBasis:
    """A monic, inter-reduced left Groebner basis with optional transform.

    transform[i] expresses elements[i] over the original generator list;
    lifts[j] expresses original generator j over elements.  leads[i] is
    leading_term(elements[i], order), computed once (here when not
    given).  stats carries engine counters for reporting.
    """

    __slots__ = ("n", "ring", "rank", "order", "elements", "leads",
                 "transform", "lifts", "stats", "_basis")

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
        self._basis = None

    def _kernel(self, lay):
        """The elements as kernel rows, on a layout at least as wide as lay.

        Primitive integer (or monic RatFunc) rows: buchberger hands over
        the rows it built, others are made on use, again when a wider
        layout is asked for.  Clearing a monic element gives back the
        primitive row it came from.
        """
        basis = self._basis
        if basis is None or basis.layout.width < lay.width:
            basis = self._basis = _Basis(lay)
            for g, (m, _c) in zip(self.elements, self.leads):
                lead = lay.enc[m]
                basis.add(primitive(_clear(g.terms, self.ring, lay)[0],
                                    lead)[0], lead)
        return basis

    def _kernel_rows(self):
        """The kernel rows on tuple keys."""
        basis = widening(self._kernel, layout(self.n, self.ring == H1))
        return [basis.layout.unpack(row) for row in basis.rows]

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
    basis, trans, lifts, stats = widening(
        lambda lay: _buchberger(gens, order, track, ring, lay),
        layout(n, ring == H1))
    lay = basis.layout
    lcs = [row[m] for row, m in zip(basis.rows, basis.leads)]
    if track:
        lifts = [FreeVec(n, ring, len(lcs),
                         _rational(q, den, ring, lay, lcs))
                 for q, den in lifts]
        trans = [FreeVec(n, ring, len(gens), _rational(t, lc, ring, lay))
                 for t, lc in zip(trans, lcs)]
    stats["basis_size"] = len(lcs)
    COUNTERS["spairs"] += stats["spairs"]
    COUNTERS["basis_elements"] += len(lcs)
    one = _one(ring)
    gb = GBasis(n, ring, rank, order,
                [FreeVec(n, ring, rank, _rational(row, lc, ring, lay))
                 for row, lc in zip(basis.rows, lcs)],
                transform=trans, lifts=lifts, stats=stats,
                leads=[(lay.dec[m], one) for m in basis.leads])
    gb._basis = basis
    return gb


def _buchberger(gens, order, track, ring, lay):
    """The kernel of buchberger on one layout.

    Returns the interreduced basis, with track the transform rows and,
    per generator, its quotients and the denominator they come over.
    """
    homog = ring == H1
    keys = order.packed(lay)
    basis = _Basis(lay)
    trans = [] if track else None
    pairs = []
    seq = count()

    def push(row, rep):
        if homog:
            _require_homogeneous(map(lay.degree, row))
        mono = max(row, key=keys.__getitem__)
        new = len(basis.rows)
        for k, m in enumerate(basis.leads):
            data = lay.lcm_multipliers(m, mono)
            if data is not None:
                heappush(pairs, (keys[data[0]], next(seq), k, new,
                                 data[1], data[2]))
        row, d = primitive(row, mono)
        basis.add(row, mono)
        if track:
            trans.append(_divided(rep, d))

    z0 = _zero_index(lay.n)
    for i, g in enumerate(gens):
        if g.terms:
            row, den = _clear(g.terms, ring, lay)
            push(row, {lay.enc[(i, z0, z0, 0)]: _one(ring) * den}
                 if track else None)

    stats = {"spairs": 0, "reductions_to_zero": 0}
    rows, leads = basis.rows, basis.leads
    while pairs:
        _key, _seq, i, j, qi, qj = heappop(pairs)
        ci, cj = cancel(rows[i][leads[i]], rows[j][leads[j]])
        sp = _spoly(lay, rows[i], qi, ci, rows[j], qj, cj)
        stats["spairs"] += 1
        rem, s, q = _reduce(sp, basis, keys, track)
        if not rem:
            stats["reductions_to_zero"] += 1
            continue
        rep = None
        if track:
            rep = _minus_quotients(_spoly(lay, trans[i], qi, s * ci,
                                          trans[j], qj, s * cj),
                                   q, trans, lay)
        push(rem, rep)

    basis, trans = _interreduce(basis, trans, keys)

    lifts = None
    if track:
        lifts = []
        for g in gens:
            row, den = _clear(g.terms, ring, lay)
            rem, s, q = _reduce(row, basis, keys, True)
            if rem:
                raise InternalInvariant("a generator left a remainder on "
                                        "its own Groebner basis")
            lifts.append((q, s * den))
    return basis, trans, lifts, stats


def _interreduce(basis, trans, keys):
    """Keep minimal leads, then tail-reduce each row against the rest.

    No other kept lead divides a kept lead, so tail reduction leaves every
    lead in place (scaled by the s of _reduce).  The leads never change,
    so a row reduced once stays reduced and one pass suffices.
    """
    lay, leads = basis.layout, basis.leads
    kept = _Basis(lay)
    keep = [i for i, mi in enumerate(leads)
            if not any(j != i and lay.divides(mj, mi) and (mi != mj or j < i)
                       for j, mj in enumerate(leads))]
    for i in keep:
        kept.add(basis.rows[i], leads[i])
    if trans is not None:
        trans = [trans[i] for i in keep]
    for i, own in enumerate(kept.leads):
        # reduce row i against the others: its lead leaves the index
        bucket = kept.index[lay.comp(own)]
        at = bucket.index((i, own))
        del bucket[at]
        rem, s, q = _reduce(kept.rows[i], kept, keys, trans is not None)
        bucket.insert(at, (i, own))
        kept.rows[i], d = primitive(rem, own)
        kept.envs[i] = envelope(kept.rows[i])
        if trans is not None:
            t = trans[i] if s == 1 else {k: c * s
                                         for k, c in trans[i].items()}
            trans[i] = _divided(_minus_quotients(t, q, trans, lay), d)
    return kept, trans


def syzygy_module(gb):
    """Schreyer generators of the left syzygies of gb.elements."""
    ring = gb.ring
    z0 = _zero_index(gb.n)

    def run(lay):
        basis = gb._kernel(lay)
        lay = basis.layout
        keys = gb.order.packed(lay)
        rows, leads = basis.rows, basis.leads
        lcs = [row[m] for row, m in zip(rows, leads)]
        out = []
        for j in range(len(rows)):
            for i in range(j):
                data = lay.lcm_multipliers(leads[i], leads[j])
                if data is None:
                    continue
                _, qi, qj = data
                ci, cj = cancel(lcs[i], lcs[j])
                rem, s, q = _reduce(_spoly(lay, rows[i], qi, ci, rows[j],
                                           qj, cj), basis, keys, True)
                if rem:
                    raise InternalInvariant("input to syzygy_module was "
                                            "not a Groebner basis")
                # s (ci qi e_i - cj qj e_j) - q kills rows; with component
                # k times lcs[k] it kills the elements, and over
                # s ci lcs[i] its term qi e_i has coefficient 1
                syz = _spoly(lay, {lay.enc[(i, z0, z0, 0)]: s}, qi, ci,
                             {lay.enc[(j, z0, z0, 0)]: s}, qj, cj)
                add_terms(syz, ((k, -c) for k, c in q.items()))
                if syz:
                    out.append(_rational(syz, s * ci * lcs[i], ring, lay,
                                         lcs))
        return out

    return [FreeVec(gb.n, ring, len(gb.elements), terms)
            for terms in widening(run, layout(gb.n, ring == H1))]


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
    syz = syzygy_module(gb)
    z0 = _zero_index(n)

    def compose(lay):
        trans = [lay.pack(t.terms) for t in gb.transform]
        rows = [_minus_quotients({}, {k: -c for k, c in
                                      lay.pack(sig.terms).items()},
                                 trans, lay)
                for sig in syz]
        rows += [_minus_quotients({lay.enc[(i, z0, z0, 0)]: _one(ring)},
                                  lay.pack(lift.terms), trans, lay)
                 for i, lift in enumerate(gb.lifts)]
        return [lay.unpack(row) for row in rows if row]

    return [FreeVec(n, ring, s, row)
            for row in widening(compose, layout(n, ring == H1))]


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

    def extend(self, max_length):
        """Resolve further, through stage max_length or to the zero kernel."""
        while not self.complete and len(self.matrices) <= max_length:
            current = self.matrices[-1]
            syz = syz_of_list(current) if any(r.terms for r in current) else []
            self.complete = not syz
            if syz:
                self.matrices.append(syz)
                self.ranks.append(len(syz))
        return self


def free_resolution(rows, rank, max_length):
    """Iterated syzygies of a presentation, through stage max_length."""
    return FreeResolution([list(rows)], [rank, len(rows)],
                          False).extend(max_length)


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
