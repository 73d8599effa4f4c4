"""
Left Groebner bases for submodules of free modules over W_n.

Module monomials are keys (comp, alpha, beta, e) on every object this
module hands out.  Inside the kernel each is one int of a _packed.Layout,
so that a product is one integer sum, divisibility one guard-bit test
and an lcm one fieldwise max.  A kernel call starts on the narrowest
layout; when an exponent would leave its field, _packed.Overflow stops
it and it reruns on fields twice as wide (_packed.widening), so no
exponent wraps.  Orders are realized as sort keys, larger key = more
leading, each defined once: a key read off the packed int itself
(Layout.graded and Layout.degrees), memoized per layout by
TermOrder.packed, so that no monomial is decoded to be ranked, and a
tuple key ranks by its int.  The engine runs Buchberger with the
normal selection strategy.  Under a graded order a call prunes pairs by
the Gebauer-Moeller update (_chain), which rests on the chain criterion,
sound in W_n (Gebauer and Moeller, J. Symb. Comp. 6, 1988; Kandri-Rody
and Weispfenning, J. Symb. Comp. 9, 1990); it returns the reduced basis,
which is unique.  Tracked calls prune too; their transform and lifts
are those of the basis found, so they are correct whatever pairs are
dropped.  That they also equal those of a run that keeps every pair is
checked (on the pinned sessions, the goldens and seeded inputs), not
proved: the criterion gives a covered pair a representation below its
lcm, not a zero remainder when it would have popped, and on inhomogeneous
input a degree fall could leave one.  Under the V-order, where a divisor
can rank above its multiple, the pairs of a chain can pop after the pair
they cover, and pruning there can change the order in which the basis
elements are found; calls under it keep every pair.  There is no product
criterion: it is unsound in algebras with nontrivial commutators.

Inside the kernel a row over QQ, ZP or H1 is a sparse dict of integers,
and a row over QZ a sparse dict of polynomials over Z in z (_linalg.ZPoly):
denominators are cleared once, at input (_linalg.clear), and a row that
joins the basis is divided by its content, an integer gcd or a gcd over
Z[z], and given a lead with a positive (top) coefficient.  Reduction is
fraction-free: each division step and the cofactors of each S-pair are
one _linalg.cancel, which scales the remainder instead of dividing, and
the product of the scales travels with the result.  Rows enter the kernel
from outside only through _Rows.of, which clears them, and become
Fraction rows, or RatFunc rows over QZ, on tuple keys only where they
leave it, through _rational (GBasis elements, divided by their lead so
that they are monic, transform, lifts, syzygies and remainders), so over
the ZP tag every computed object stays z-integral (leading coefficients
are rational).

Transforms, lifts and syzygies are kernel rows too, each over one
denominator, an int or a ZPoly: the tracked row (t, D) stands for t / D.
_combine builds every one of them, scaling the rows it sums to the lcm of
their denominators before the one product loop.  _syz composes the
Schreyer syzygies and the rows of Id - lifts . transform on these rows
inside the kernel.  A GBasis from buchberger keeps its kernel rows, and
with track=True its transform and lifts as _Rows, and builds the rows of
its elements, transform and lifts only when they are read.

Relation rows are held once, as _Rows: kernel rows over their least
positive denominator (_linalg.lowest_terms) on one layout, in a named
ambient (n, ring, rank).  A module's relations, its resolution's stages,
their tau-duals, the kernel of the dual map, the preimage rows of Ext
and the relations of a lattice, saturated or reduced mod z, are _Rows;
_Rows.on is the one move of rows to a wider layout, of a basis's rows
too (GBasis._kernel), and _Basis.of the one reader of rows that already
are a basis.  _gb, _syz, FreeResolution.extend, _preimage, _colon and
_saturate take and give _Rows; buchberger, syz_of_list, free_resolution,
preimage_rows, colon_z and saturate_z are those same functions with
FreeVecs at their edges, cleared on the way in and made Fraction (or
RatFunc) rows once on the way out (given no rows, buchberger and
free_resolution work in W_1 over QQ).  The colon by z builds its doubled
rows and divides its basis rows by z as shifts of packed keys
(Layout.comp_shifted and Layout.z_shifted), and saturation compares the
primitive basis rows of two rounds, which stand for monic elements.

Each basis element's lead monomial is found once, when it joins the
basis, and travels with it as GBasis.leads.  The leads of a kernel basis
are indexed by component, in basis order, so the divisor search returns
the first divisor of the basis, as a scan of all leads would.  Pending
pairs wait in a heap keyed by the order key of their lcm, with the
sequence number of the pair as tiebreak; basis elements never change
once pushed, so the heap pops pairs in exactly the order of a stable
sort by lcm, and the transform, lifts and syzygies do not depend on how
the queue is kept (_chain heapifies what it leaves of it, which keeps
that order).  Normal forms reduce one mutable sparse dict in
_reduce, the one division loop; its private floor, an order key, stops
at the first lead below it and drops the rest, which is how the de Rham
window cuts weights below k0.  Interreduction is one pass: tail
reduction never changes a lead monomial, so an element reduced against
the other leads stays reduced while the rest are.

Termination note: a graded order ranks each monomial above its proper
divisors, so by Dickson's lemma it is a well-order, and Buchberger and
division terminate under it on any input, over H1 too.  The V-order used
for restriction is not graded and is a well-order only on the
h-homogeneous elements the caller feeds it; under an order that is not
graded the engine checks homogeneity over H1 of each basis element as its
lead is cached, and of the input to left_normal_form, and raises
InternalInvariant otherwise.
"""

from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import count

from ._linalg import (ZPoly, add_terms, cancel, clear, lcm_of, lowest_terms,
                      primitive)
from ._packed import Memo, envelope, layout, product, widening
from .errors import (InternalInvariant, RankMismatch, UnsupportedAmbient,
                     ZeroElement)
from .scalars import RatFunc
from .weyl import (H1, QQ, QZ, ZP, WeylAlgebra, WeylElement, _one,
                   _reordered, _Terms, _transposed, _zero_index)


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
    """A term order as sort keys, larger = more leading.

    pack(lay) gives the key of the order on the packed monomials of lay,
    read off the int itself; a monomial on tuple keys is ranked by the
    key of its packed int (leading_term).  graded says that a
    monomial ranks above each of its proper divisors, which the pair
    criteria of buchberger ask for, and which makes the order a
    well-order, so that over H1 it needs no h-homogeneous input.  The
    order factories below return one shared instance per argument, so
    the memo behind packed() serves every call under that order.
    """

    __slots__ = ("name", "graded", "_pack", "_packed")

    def __init__(self, name, pack, graded=True):
        self.name = name
        self.graded = graded
        self._pack = pack
        self._packed = {}

    def packed(self, lay):
        """The packed key on lay, memoized per layout."""
        keys = self._packed.get(lay)
        if keys is None:
            keys = self._packed[lay] = Memo(self._pack(lay))
        return keys

    def __repr__(self):
        return "TermOrder(%s)" % self.name


@cache
def bernstein_order(n):
    """Graded reverse lex on (x, d) with z-degree tiebreak, term over position."""
    return TermOrder("bernstein", lambda lay: lay.graded)


@cache
def pot_block_order(n, boundary):
    """Components >= boundary dominate everything below the boundary.

    A basis element whose lead sits below the boundary is supported
    entirely below it, which is the elimination property colon and
    intersection computations rely on.
    """
    def pack(lay):
        graded = lay.graded
        return lambda m: (lay.comp(m) >= boundary,) + graded(m)
    return TermOrder("pot-block-%d" % boundary, pack)


@cache
def vres_order(n):
    """V-order along x for restriction: weight(x) = -1, weight(d) = +1.

    Only a partial well-order; sound solely on h-homogeneous input, where
    each fixed total degree carries finitely many monomials.
    """
    if n != 1:
        raise RankMismatch("V-order restriction path is n = 1 only")

    def pack(lay):
        degrees, comp = lay.degrees, lay.comp

        def packed(m):
            a, b, e = degrees(m)
            return (b - a, a + b, e, -comp(m))
        return packed
    return TermOrder("vres", pack, graded=False)


def leading_term(v, order):
    if not v.terms:
        raise ZeroElement("the zero vector has no leading term")

    def run(lay):
        keys, enc = order.packed(lay), lay.enc
        return max(v.terms, key=lambda mono: keys[enc[mono]])
    mono = widening(run, layout(v.n, v.ring == H1))
    return mono, v.terms[mono]


def _require_homogeneous(degrees):
    """The V-order is a well-order only on h-homogeneous input."""
    if len(set(degrees)) > 1:
        raise InternalInvariant("H1 Groebner input must be h-homogeneous")


def _clear(terms, lay):
    """A kernel row on packed keys proportional to terms, and the factor.

    terms times the lcm of its denominators (_linalg.clear): ints, or
    ZPolys over QZ.
    """
    enc = lay.enc
    nums, den = clear(terms.values())
    return {enc[k]: c for k, c in zip(terms, nums)}, den


def _rational(row, den, ring, lay, scales=None):
    """row / den on tuple keys, comp k also times scales[k].

    The one way rows leave the kernel: as Fraction rows, or over QZ as
    RatFunc rows.  A basis element leaves over its lead, which makes it
    the monic element of the field.
    """
    row = lay.unpack(row)
    if scales is not None:
        row = {k: c * scales[k[0]] for k, c in row.items()}
    if ring == QZ:
        return {k: RatFunc(c, den) for k, c in row.items()}
    return {k: Fraction(c, den) for k, c in row.items()}


class _Rows:
    """Kernel rows (row, den), each standing for row / den, on one layout.

    The one form in which relation rows enter the kernel and stay there:
    the relations of a module, the stages of its resolution, their
    tau-duals, the preimages of Ext and the tracked transform and lifts
    of a basis.  Rows stay packed rows of ints (of ZPolys over QZ),
    move to a wider layout only through on(), and become FreeVecs once,
    in vecs(), when a public caller reads them.  The ambient is named:
    rank is that of the free module W_n^rank the rows lie in, with or
    without rows.

    reduced is the TermOrder under which the rows, in order and up to
    their scalars, are the reduced Groebner basis of their span, or
    None.  _colon marks its output under bernstein_order, and
    lattice.Lattice.presentation its negated standard rows; untracked _gb
    under that order then reads the basis off the rows.  Rows derived
    from marked rows (on, stacked, a new _Rows) carry no mark.
    """

    __slots__ = ("n", "ring", "rank", "layout", "rows", "reduced", "_vecs")

    def __init__(self, n, ring, rank, lay, rows, vecs=None, reduced=None):
        self.n = n
        self.ring = ring
        self.rank = rank
        self.layout = lay
        self.rows = rows
        self.reduced = reduced
        self._vecs = vecs

    @staticmethod
    def of(n, ring, rank, vecs):
        """FreeVecs of W_n^rank as kernel rows, on the narrowest layout.

        The one way rows enter the kernel.
        """
        ambient = FreeVec.zero(n, ring, rank)
        for g in vecs:
            ambient._check(g)
        return widening(lambda lay: _Rows(
            n, ring, rank, lay, [_clear(g.terms, lay) for g in vecs],
            vecs), layout(n, ring == H1))

    def on(self, lay):
        """The rows on layout lay, moved there from a narrower one."""
        old = self.layout
        if lay is old:
            return self.rows
        return [(lay.moved(row, old), d) for row, d in self.rows]

    def tau_dual(self):
        """The tau-transpose of the stage map these rows present.

        The dual of (u -> u . A) on column vectors becomes, in transposed
        coordinates, the left-module map v -> v . C with
        C[j][i] = tau(A[i][j]).  The rows of C come from one packed pass
        over the rows of A, scaled to one denominator.
        """
        ring, rank = self.ring, self.rank

        def run(lay):
            rows = self.on(lay)
            den = lcm_of(d for _r, d in rows)
            terms = ((j, i, m, c if d == den else c * (den // d))
                     for i, (row, d) in enumerate(rows)
                     for k, c in row.items() for j, m in [lay.split(k)])
            outs = _reordered(lay, _transposed, terms,
                              [{} for _ in range(rank)])
            return _Rows(self.n, ring, len(rows), lay,
                         [lowest_terms(out, den) for out in outs])

        return widening(run, self.layout)

    def stacked(self, other):
        """These rows, then the nonzero rows of other, on the wider layout."""
        lay = max(self.layout, other.layout, key=lambda lay: lay.width)
        return _Rows(self.n, self.ring, self.rank, lay, self.on(lay) + [
            (row, d) for row, d in other.on(lay) if row])

    def vecs(self):
        """The rows as FreeVecs, built on the first call."""
        if self._vecs is None:
            self._vecs = [FreeVec(self.n, self.ring, self.rank,
                                  _rational(row, d, self.ring, self.layout))
                          for row, d in self.rows]
        return self._vecs


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

    @staticmethod
    def of(lay, rows, keys):
        """The basis of rows on lay that are a Groebner basis under the
        order of keys, in order: each made primitive over its lead, the
        term of largest key, as buchberger leaves it.  No run is made."""
        basis = _Basis(lay)
        for row in rows:
            lead = max(row, key=keys.__getitem__)
            basis.add(primitive(row, lead)[0], lead)
        return basis

    def add(self, row, lead):
        self.index.setdefault(self.layout.comp(lead), []).append(
            (len(self.rows), lead))
        self.rows.append(row)
        self.leads.append(lead)
        self.envs.append(envelope(row))

    def lcs(self):
        """The lead coefficient of each row."""
        return [row[m] for row, m in zip(self.rows, self.leads)]


def _spoly(lay, ri, qi, ci, rj, qj, cj):
    """ci qi ri - cj qj rj, for packed monomials qi, qj of comp 0."""
    p = lay.mul_into({}, qi, ci, ri, envelope(ri))
    return lay.mul_into(p, qj, -cj, rj, envelope(rj))


def _units(lay, count, ring=None):
    """The unit rows e_0..e_(count-1) as rows (row, 1).

    As tracked rows their 1 is an int over every ring; as relation rows
    over ring QZ, a ZPoly.
    """
    one = ZPoly((1,)) if ring == QZ else 1
    return [({lay.with_comp(0, i): one}, one) for i in range(count)]


def _pair_row(lay, i, qi, ci, j, qj, cj, s, quot):
    """s (ci qi e_i - cj qj e_j) - quot, a sparse row over W^len(basis).

    Its product with the basis rows is the remainder _reduce leaves of
    the S-polynomial ci qi row_i - cj qj row_j, scaled by s, with quot.
    """
    return add_terms({lay.with_comp(qi, i): s * ci,
                      lay.with_comp(qj, j): -s * cj},
                     ((k, -c) for k, c in quot.items()))


def _combine(sigma, tracked, lay, d):
    """sigma . tracked / d as a tracked row (t, D), meaning t / D.

    sigma is a sparse row over W^len(tracked) and tracked[k] is (t_k,
    D_k).  Rows t_k are scaled by lcm / D_k, so the sum is one row over
    the lcm times d: of ints, or over QZ of ZPolys.
    """
    split = lay.split
    parts = [(split(key), c) for key, c in sigma.items()]
    den = lcm_of({tracked[k][1] for (k, _q), _c in parts})
    out = {}
    envs = {}
    for (k, q), c in parts:
        t, dk = tracked[k]
        env = envs.get(k)
        if env is None:
            env = envs[k] = envelope(t)
        if dk != den:
            c *= den // dk
        lay.mul_into(out, q, c, t, env)
    return out, den * d


def _reduce(p, basis, keys, track=False, floor=()):
    """Left division of the sparse row p by the rows of basis, fraction-free.

    Each step divides the current leading monomial by the first lead that
    divides it and cancels its coefficient by _linalg.cancel: on rows of
    ints or ZPolys that first scales the running remainder by some m.
    Returns the remainder r, the product s of those scales (1 on monic
    rows) and, with track=True, the quotients as a sparse row over
    W^len(basis.rows), so that s p = sum_k q_k rows[k] + r.  A quotient
    term is scaled once, at the end, by the scales that came after it.
    keys is the order's memo on the basis layout.  Division stops at the
    first leading monomial whose key is below floor and drops the terms
    still left to divide; the default () is below every key.
    """
    lay = basis.layout
    rows, envs, index = basis.rows, basis.envs, basis.index
    divisor, key = lay.divisor, keys.__getitem__
    p = dict(p)
    rem = {}
    steps = [] if track else None
    s = 1
    while p:
        mono = max(p, key=key)
        if floor and key(mono) < floor:
            break
        hit = divisor(index, mono)
        if hit is None:
            rem[mono] = p.pop(mono)
            continue
        k, lead, q = hit
        row = rows[k]
        m, c = cancel(p[mono], row[lead])
        if m != 1:
            s *= m
            for terms in (p, rem):
                for t in terms:
                    terms[t] *= m
        lay.mul_into(p, q, -c, row, envs[k])
        if track:
            steps.append((lay.with_comp(q, k), c, s))
    quot = None
    if track:
        quot = add_terms({}, ((qk, c if t == s else c * (s // t))
                              for qk, c, t in steps))
    return rem, s, quot


def left_normal_form(v, basis, order):
    """Remainder of left division of v by the elements of basis.

    basis is a list of FreeVec or a GBasis, in the ambient of v.  A GBasis
    computed under order lends its cached leads and kernel rows; anything
    else becomes a GBasis of its nonzero elements under order.
    """
    # a GBasis carries n, ring and rank as a FreeVec does
    for g in [basis] if isinstance(basis, GBasis) else basis:
        v._check(g)
    if not (isinstance(basis, GBasis) and basis.order is order):
        elements = basis.elements if isinstance(basis, GBasis) else basis
        basis = GBasis(v.n, v.ring, v.rank, order, [g for g in elements if g])
    if v.ring == H1 and not order.graded:
        for row in [v.terms] + [g.terms for g in basis.elements]:
            _require_homogeneous(sum(a) + sum(b) + e for _c, a, b, e in row)

    cleared = _Rows.of(v.n, v.ring, v.rank, [v])

    def run(lay):
        kernel = basis._kernel(lay)
        lay = kernel.layout
        (row, den), = cleared.on(lay)
        rem, s, _q = _reduce(row, kernel, order.packed(lay))
        return _rational(rem, s * den, v.ring, lay)

    return FreeVec(v.n, v.ring, v.rank, widening(run, cleared.layout))


class GBasis:
    """A monic, inter-reduced left Groebner basis with optional transform.

    transform[i] expresses elements[i] over the original generator list;
    lifts[j] expresses original generator j over elements; both are None
    unless buchberger tracked them.  A basis from buchberger keeps its
    kernel rows, and its tracked transform and lifts as _Rows, and builds
    these Fraction (RatFunc) rows, and its elements, only when they are
    first read.  leads[i] is leading_term(elements[i], order), computed
    once (here when not given).  stats carries engine counters for
    reporting.
    """

    __slots__ = ("n", "ring", "rank", "order", "leads", "stats", "_basis",
                 "_elements", "_track", "_fractions")

    def __init__(self, n, ring, rank, order, elements, stats=None,
                 leads=None):
        self.n = n
        self.ring = ring
        self.rank = rank
        self.order = order
        self._elements = elements
        self.leads = [leading_term(g, order) for g in elements] \
            if leads is None else leads
        self.stats = stats or {}
        self._basis = None
        self._track = None
        self._fractions = None

    @property
    def elements(self):
        """The basis as monic Fraction (RatFunc) rows."""
        if self._elements is None:
            basis = self._basis
            self._elements = [
                FreeVec(self.n, self.ring, self.rank,
                        _rational(row, row[m], self.ring, basis.layout))
                for row, m in zip(basis.rows, basis.leads)]
        return self._elements

    def _kernel(self, lay):
        """The elements as kernel rows, on a layout at least as wide as lay.

        Primitive rows of ints or ZPolys: buchberger hands over
        the rows it built, others are cleared once, on first use.  When a
        wider layout is asked for, the same rows are moved there.
        """
        basis = self._basis
        if basis is not None and basis.layout.width >= lay.width:
            return basis
        rows = self._rows() if basis is not None else _Rows.of(
            self.n, self.ring, self.rank, self.elements)
        lay = max(lay, rows.layout, key=lambda lay: lay.width)
        self._basis = _Basis.of(lay, [row for row, _d in rows.on(lay)],
                                self.order.packed(lay))
        return self._basis

    def _rows(self):
        """The basis as _Rows: primitive kernel rows, each over its lead."""
        basis = widening(self._kernel, layout(self.n, self.ring == H1))
        return _Rows(self.n, self.ring, self.rank, basis.layout,
                     list(zip(basis.rows, basis.lcs())))

    def _public(self):
        """(transform, lifts) as Fraction (RatFunc) rows, built on first read.

        _track holds them as _Rows: transform row (t, D) gives kernel row
        k = (t / D) . gens, lift (q, D) gives D gens[j] = q . kernel rows.
        """
        if self._fractions is None and self._track is not None:
            trans, lifts = self._track
            n, ring, lcs = self.n, self.ring, self._basis.lcs()
            lay = trans.layout
            self._fractions = (
                [FreeVec(n, ring, trans.rank,
                         _rational(t, d * lc, ring, lay))
                 for (t, d), lc in zip(trans.rows, lcs)],
                [FreeVec(n, ring, lifts.rank, _rational(q, d, ring, lay, lcs))
                 for q, d in lifts.rows])
        return self._fractions or (None, None)

    transform = property(lambda self: self._public()[0])
    lifts = property(lambda self: self._public()[1])

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
    """Left Groebner basis of the row span of gens, normal pair selection.

    Under a graded order pairs are pruned by the chain criterion, with or
    without track; the transform and lifts are those of the basis found
    (see the module docstring on how they compare with a run that keeps
    every pair).  Every generator lives in the ambient of the first; no
    generators name W_1 over QQ of rank 1.
    """
    gens = list(gens)
    ambient = gens[0]._ambient() if gens else (1, QQ, 1)
    return _gb(_Rows.of(*ambient, gens), order, track)


def _gb(gens, order, track=False):
    """buchberger on kernel rows: the one implementation behind it.

    Untracked, rows marked reduced under order (_Rows.reduced) are their
    own basis: each is made primitive over its lead, in order, as
    buchberger would leave it, and no Buchberger run is made or counted.
    """
    if gens.reduced is order and not track:
        lay = gens.layout
        basis = _Basis.of(lay, [row for row, _d in gens.rows],
                          order.packed(lay))
        return _gb_of(gens, order, basis, {"spairs": 0,
                                           "reductions_to_zero": 0})
    COUNTERS["buchberger_calls"] += 1
    ring = gens.ring
    basis, trans, lifts, stats = widening(
        lambda lay: _buchberger(gens.on(lay), order, track, ring, lay),
        gens.layout)
    COUNTERS["spairs"] += stats["spairs"]
    COUNTERS["basis_elements"] += len(basis.rows)
    gb = _gb_of(gens, order, basis, stats)
    if track:
        lay = basis.layout
        gb._track = (_Rows(gens.n, ring, len(gens.rows), lay, trans),
                     _Rows(gens.n, ring, len(basis.rows), lay, lifts))
    return gb


def _gb_of(gens, order, basis, stats):
    """The GBasis of gens under order whose kernel basis is basis."""
    stats["basis_size"] = len(basis.rows)
    dec, one = basis.layout.dec, _one(gens.ring)
    gb = GBasis(gens.n, gens.ring, gens.rank, order, None, stats=stats,
                leads=[(dec[m], one) for m in basis.leads])
    gb._basis = basis
    return gb


def _buchberger(cleared, order, track, ring, lay):
    """The kernel of buchberger on one layout, on the kernel rows cleared.

    Returns the interreduced basis and, with track, its transform and the
    lifts of the generators as tracked rows (see GBasis._public).  Over
    H1 under an order that is not graded each basis row must be
    homogeneous (see the termination note).
    """
    homog = ring == H1 and not order.graded
    keys = order.packed(lay)
    basis = _Basis(lay)
    trans = [] if track else None
    pairs = []
    seq = count()

    def push(row, sigma, tracked):
        # with track, sigma . tracked is row
        if homog:
            _require_homogeneous(map(lay.degree, row))
        mono = max(row, key=keys.__getitem__)
        new = len(basis.rows)
        fresh = {k: data for k, m in enumerate(basis.leads)
                 for data in [lay.lcm_multipliers(m, mono)]
                 if data is not None}
        if order.graded:
            fresh = _chain(lay, pairs, basis.leads, mono, fresh)
        for k, (lcm_k, qk, qnew) in fresh.items():
            heappush(pairs, (keys[lcm_k], next(seq), k, new, qk, qnew))
        row, d = primitive(row, mono)
        basis.add(row, mono)
        if track:
            # kept in lowest terms, so that denominators do not pile up
            trans.append(lowest_terms(*_combine(sigma, tracked, lay, d)))

    units = _units(lay, len(cleared)) if track else None
    for i, (row, den) in enumerate(cleared):
        if row:
            push(row, {lay.with_comp(0, i): den} if track else None, units)

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
        push(rem, _pair_row(lay, i, qi, ci, j, qj, cj, s, q)
             if track else None, trans)

    basis, trans = _interreduce(basis, trans, keys)

    lifts = None
    if track:
        lifts = []
        for row, den in cleared:
            rem, s, q = _reduce(row, basis, keys, True)
            if rem:
                raise InternalInvariant("a generator left a remainder on "
                                        "its own Groebner basis")
            lifts.append((q, s * den))
    return basis, trans, lifts, stats


def _chain(lay, pairs, leads, mono, fresh):
    """The Gebauer-Moeller update for a new lead mono; returns the new pairs.

    fresh maps each k whose lead shares the comp of mono to (lcm, qk, q)
    of the pair (k, new).  A queued pair (i, j) is dropped from the heap
    pairs when mono divides its lcm L and neither lcm(i, new) nor
    lcm(j, new) is L: the chain (i, new), (new, j) covers it.  A new pair
    is kept only when no other new pair's lcm properly divides its lcm,
    and of new pairs with equal lcms only the first.  There is no product
    criterion.
    """
    divides = lay.divides

    def covered(pair):
        _key, _seq, i, j, qi, _qj = pair
        lcm_ij = leads[i] + qi
        return divides(mono, lcm_ij) and \
            lcm_ij not in (fresh[i][0], fresh[j][0])

    kept = [p for p in pairs if not covered(p)]
    if len(kept) < len(pairs):
        pairs[:] = kept
        heapify(pairs)
    return {k: data for k, data in fresh.items()
            if not any(divides(other[0], data[0])
                       and (other[0] != data[0] or l < k)
                       for l, other in fresh.items() if l != k)}


def _interreduce(basis, trans, keys):
    """Keep minimal leads, then tail-reduce each row against the rest.

    No other kept lead divides a kept lead, so tail reduction leaves every
    lead in place (scaled by the s of _reduce).  The leads never change,
    so a row reduced once stays reduced and one pass suffices.  A row
    whose tail no other lead divides is left as it is, with its transform
    row.
    """
    lay, leads = basis.layout, basis.leads
    kept = _Basis(lay)
    keep = [i for i, mi in enumerate(leads)
            if not any(j != i and lay.divides(mj, mi) and (mi != mj or j < i)
                       for j, mj in basis.index[lay.comp(mi)])]
    for i in keep:
        kept.add(basis.rows[i], leads[i])
    if trans is not None:
        trans = [trans[i] for i in keep]
    for i, own in enumerate(kept.leads):
        # reduce row i against the others: its lead leaves the index
        bucket = kept.index[lay.comp(own)]
        at = bucket.index((i, own))
        del bucket[at]
        row = kept.rows[i]
        rem, s, q = _reduce(row, kept, keys, trans is not None)
        bucket.insert(at, (i, own))
        if rem == row:
            # no lead divides a term of its tail: the row is unchanged
            continue
        kept.rows[i], d = primitive(rem, own)
        kept.envs[i] = envelope(kept.rows[i])
        if trans is not None:
            # s e_i - q: q has no term in component i, whose lead left
            # the index
            sigma = {k: -c for k, c in q.items()}
            sigma[lay.with_comp(0, i)] = s
            trans[i] = lowest_terms(*_combine(sigma, trans, lay, d))
    return kept, trans


def _syzygies(basis, keys):
    """(sigma, N) for each nonzero Schreyer syzygy sigma of basis.rows.

    sigma is a sparse row over W^len(basis.rows) with sigma . rows = 0.
    With component k times the lead coefficient of row k it kills the
    monic elements, and over N its term qi e_i has coefficient 1.
    """
    lay = basis.layout
    rows, leads, lcs = basis.rows, basis.leads, basis.lcs()
    out = []
    for j in range(len(rows)):
        for i in range(j):
            data = lay.lcm_multipliers(leads[i], leads[j])
            if data is None:
                continue
            _, qi, qj = data
            ci, cj = cancel(lcs[i], lcs[j])
            rem, s, q = _reduce(_spoly(lay, rows[i], qi, ci, rows[j], qj, cj),
                                basis, keys, True)
            if rem:
                raise InternalInvariant("Schreyer syzygies of rows that "
                                        "are not a Groebner basis")
            sigma = _pair_row(lay, i, qi, ci, j, qj, cj, s, q)
            if sigma:
                out.append((sigma, s * ci * lcs[i]))
    return out


def syz_of_list(gens):
    """Syzygies of an arbitrary generator list, via a tracked basis."""
    gens = list(gens)
    return _syz(_Rows.of(*gens[0]._ambient(), gens)).vecs() if gens else []


def _syz(gens):
    """The syzygies of kernel rows as kernel rows: the one implementation.

    Rows are {sigma . T} for sigma in Syz(basis) together with the rows of
    (Id - lifts . transform); both families vanish on gens and together
    they generate everything that does.  They are composed from the
    kernel rows of the tracked basis, on a layout wide enough for the
    products.
    """
    n, ring, count = gens.n, gens.ring, len(gens.rows)
    if not count:
        return _Rows(n, ring, 0, gens.layout, [])
    gb = _gb(gens, bernstein_order(n), track=True)

    def compose(lay):
        basis = gb._kernel(lay)
        lay = basis.layout
        trans, lifts = (rows.on(lay) for rows in gb._track)
        rows = [_combine(sigma, trans, lay, d)
                for sigma, d in _syzygies(basis, gb.order.packed(lay))]
        # e_j - lifts_j . T: over trans followed by the unit rows
        tracked = trans + _units(lay, count)
        for j, (q, d) in enumerate(lifts):
            sigma = {k: -c for k, c in q.items()}
            sigma[lay.with_comp(0, len(trans) + j)] = d
            rows.append(_combine(sigma, tracked, lay, d))
        return _Rows(n, ring, count, lay,
                     [lowest_terms(row, d) for row, d in rows if row])

    return widening(compose, gb._basis.layout)


class FreeResolution:
    """stages[k]: kernel rows presenting the kernel of the previous stage.

    stages[0] presents the module.  complete is True once the last stage
    has a zero kernel, so that no later stage exists.  ranks and matrices
    are read off the stages: ranks[k] is the rank of the k-th free module,
    matrices[k] the rows of stages[k] as FreeVecs, built once.
    """

    __slots__ = ("stages", "complete", "_duals")

    def __init__(self, stages, complete):
        self.stages = stages
        self.complete = complete
        self._duals = {}

    def dual(self, k):
        """The tau-dual of stage k (_Rows.tau_dual), built once."""
        if k not in self._duals:
            self._duals[k] = self.stages[k].tau_dual()
        return self._duals[k]

    @property
    def ranks(self):
        return [self.stages[0].rank] + [len(s.rows) for s in self.stages]

    @property
    def matrices(self):
        return [stage.vecs() for stage in self.stages]

    def extend(self, max_length):
        """Resolve further, through stage max_length or to the zero kernel."""
        while not self.complete and len(self.stages) <= max_length:
            current = self.stages[-1]
            syz = _syz(current) if any(row for row, _d in current.rows) \
                else None
            self.complete = syz is None or not syz.rows
            if not self.complete:
                self.stages.append(syz)
        return self


def free_resolution(rows, rank, max_length):
    """Iterated syzygies of a presentation, through stage max_length.

    The rows lie in W^rank over the algebra of the first; no rows name
    W_1 over QQ.
    """
    rows = list(rows)
    n, ring = (rows[0].n, rows[0].ring) if rows else (1, QQ)
    return FreeResolution([_Rows.of(n, ring, rank, rows)],
                          False).extend(max_length)


def preimage_rows(arows, brows):
    """Generators of {u : u . arows lies in the row span of brows}."""
    arows = list(arows)
    if not arows:
        return []
    return _preimage(_Rows.of(*arows[0]._ambient(), arows + list(brows)),
                     len(arows)).vecs()


def _preimage(stacked, m):
    """Preimage generators, as kernel rows over W^m: the one implementation.

    The first m stacked rows are the a-rows, the rest the b-rows.
    Computed from syzygies of the stacked list: a relation
    u . A + v . B = 0 exactly exhibits u . A inside span(B).  Each u is
    kept in canonical form, so a repeat is an equal pair and is dropped.
    """
    syz = _syz(stacked)
    ring, comp = syz.ring, syz.layout.comp
    out = {}
    for row, den in syz.rows:
        u = {k: c for k, c in row.items() if comp(k) < m}
        if u:
            u, den = lowest_terms(u, den)
            out.setdefault((frozenset(u.items()), den), (u, den))
    return _Rows(syz.n, ring, m, syz.layout, list(out.values()))


def _nonzero_rows(rows, rank):
    """The nonzero rows, each of rank rank, else RankMismatch."""
    rows = [r for r in rows if r.terms]
    for r in rows:
        if r.rank != rank:
            raise RankMismatch("relation rank %d vs %d" % (r.rank, rank))
    return rows


def colon_z(gens, rank):
    """One colon step (N : z) over ZP: _colon with FreeVecs at its edges."""
    gens = _nonzero_rows(gens, rank)
    if not gens:
        return []
    return _colon(_Rows.of(gens[0].n, gens[0].ring, rank, gens)).vecs()


def _colon(rows):
    """(N : z) of kernel rows over ZP: intersect with z F, divide by z.

    The doubled rows (r, r) of W^(2 rank), each row beside its copy
    moved rank components up, and z e_(rank + j) span a module whose
    part below the block boundary of pot_block_order is N meet z F.  The
    reduced basis rows found there are divided by z and kept over their
    lead coefficients, as (row, lc): the monic elements, in lowest terms.
    They are the reduced basis of N : z under bernstein_order, the lower
    block of pot_block_order shifted down one power of z (which keeps the
    order and divisibility), and the result is marked so (_Rows.reduced).
    """
    n, ring, rank = rows.n, rows.ring, rows.rank
    if ring != ZP:
        raise UnsupportedAmbient("colon by z runs over ZP")
    lay = rows.layout
    if not rows.rows:
        return _Rows(n, ring, rank, lay, [])
    doubled = [({**row, **lay.comp_shifted(row, rank)}, d)
               for row, d in rows.rows]
    doubled += [(lay.z_shifted({lay.with_comp(0, rank + j): 1}, 1), 1)
                for j in range(rank)]
    gb = _gb(_Rows(n, ring, 2 * rank, lay, doubled), pot_block_order(n, rank))
    basis = gb._basis
    lay = basis.layout
    out = []
    for row, m in zip(basis.rows, basis.leads):
        # a lead below the boundary has its whole row there
        if lay.comp(m) < rank:
            if lay.z_free(row):
                raise InternalInvariant("element of z F with a z-free term")
            out.append((lay.z_shifted(row, -1), row[m]))
    return _Rows(n, ring, rank, lay, out, reduced=bernstein_order(n))


def submodule_equal(gens_a, gens_b):
    """Equal row spans, as equal reduced bases: a monic one is unique."""
    gens_a = [g for g in gens_a if g.terms]
    gens_b = [g for g in gens_b if g.terms]
    if not gens_a or not gens_b:
        return not gens_a and not gens_b
    gens_a[0]._check(gens_b[0])
    order = bernstein_order(gens_a[0].n)
    return _same_basis(buchberger(gens_a, order)._rows(),
                       buchberger(gens_b, order)._rows())


def saturate_z(gens, rank):
    """(N : z^infinity) over ZP: _saturate with FreeVecs at its edges."""
    gens = _nonzero_rows(gens, rank)
    if not gens:
        return []
    rows = _Rows.of(gens[0].n, gens[0].ring, rank, gens)
    return _saturate(rows, _gb(rows, bernstein_order(rows.n))).vecs()


def _saturate(rows, gb):
    """(N : z^infinity) of kernel rows: _colon iterated to a fixed point.

    gb is the basis of rows under bernstein_order, which a module that
    already holds it lends instead of computing it again.  _colon returns
    the reduced basis of N : z under bernstein_order, and N : z = N
    exactly when that basis is N's own (_same_basis).
    """
    known = gb._rows()
    while True:
        nxt = _colon(rows)
        if _same_basis(nxt, known):
            return nxt
        rows = known = nxt


def _same_basis(first, second):
    """Whether two reduced bases under one order, as primitive _Rows, agree.

    Reduced bases are unique, so two spans are equal exactly when the
    primitive rows of their bases are equal as sets, on one layout.
    """
    lay = max(first.layout, second.layout, key=lambda lay: lay.width)
    return {frozenset(row.items()) for row, _d in first.on(lay)} == \
        {frozenset(row.items()) for row, _d in second.on(lay)}
