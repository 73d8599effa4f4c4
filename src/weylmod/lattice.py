"""
The generic-fiber / special-fiber dictionary.

A module over the completed algebra is carried by an integral presentation:
a relation matrix over W_n(Q[z]) (ring tag ZP).  Denominators that do not
vanish at z = 0 are units of the local ring, so rows given over Q(z) are
cleared by their denominator lcm; this rescales each relation by a unit and
changes neither the saturation nor the reduction.

Every verdict about the completed module is routed through the reduction
of a saturated presentation; the generic fiber over Q(z) is offered only
as a diagnostic, since an operator like z*d1 - 1 becomes invertible after
completion while staying nonzero over Q(z).

The relations of a presentation are held as Groebner kernel rows
(groebner._Rows), packed straight from the rows over Q(z), and the
lattice layer stays on them: saturation is groebner._saturate, reduction
mod z keeps the z-free terms of each row (Layout.z_free) in lowest
terms, the generic fiber gathers the terms of one key without z into one
polynomial coefficient (Layout.z_split), the Kunneth torsion term is the
preimage of the colon rows of the integral Ext^(i+1), and a lattice
tests containment up to a power of z by shifting the keys of its rows.
FreeVec rows are built only where a caller reads rows.  The FreeVecs so
built are those the same steps on FreeVecs give: reduced bases are
unique, a primitive row over its lead coefficient is the monic element,
and rows in lowest terms are canonical.
"""

from ._linalg import ZPoly, add_terms, clear, lowest_terms
from ._packed import layout, widening
from .errors import IndexOutOfRange, InternalInvariant, NonIntegral, \
    NotMinimalDimension, NotSameModule, NotSaturated, UnsupportedAmbient
from .groebner import (_colon, _gb, _nonzero_rows, _preimage,
                       _reduce, _Rows, _saturate, _units, bernstein_order,
                       submodule_equal)
from .modules import (LEFT, CharCycle, PresentedModule, char_cycle, ext,
                      grade, is_minimal_dimension, matrix_rows)
from .weyl import QQ, QZ, ZP


class IntegralPresentation:
    """Relations over W_n(Q[z]) of a module on rank generators.

    The relations are held as kernel rows (groebner._Rows): given as
    such, cleared once from FreeVec rows, or packed from rows over Q(z)
    by from_qz_matrix; rows, their FreeVecs, are built on first read.
    """

    __slots__ = ("n", "side", "rank", "saturated", "_kernel")

    def __init__(self, n, side, rank, rows, saturated=False):
        """rows: FreeVecs over ZP of W_n^rank, or nonzero kernel rows."""
        if not isinstance(rows, _Rows):
            rows = _Rows.of(n, ZP, rank, _nonzero_rows(rows, rank))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "saturated", saturated)
        object.__setattr__(self, "_kernel", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntegralPresentation is immutable")

    @property
    def rows(self):
        """The relations as FreeVecs."""
        return self._kernel.vecs()

    @staticmethod
    def from_qz_matrix(n, entries, side=LEFT, rank=None):
        """Clear unit denominators from rows given over Q(z).

        Each row is scaled by the monic lcm of its coefficient
        denominators; a denominator vanishing at z = 0 is not a unit of
        the local ring and is rejected.  The lcm over Z[z] that
        _linalg.clear puts the row over is that monic lcm times its top
        coefficient.
        """
        rank, entries = matrix_rows(entries, rank)
        cleared = []
        for row in entries:
            for w in row:
                if not all(c.is_integral() for c in w.terms.values()):
                    raise NonIntegral(
                        "entry %s has a denominator vanishing at z = 0"
                        % (w,))
            keys = [(i, a, b, e) for i, w in enumerate(row)
                    for a, b, e in w.terms]
            nums, den = clear(c for w in row for c in w.terms.values())
            cleared.append((keys, nums, den[-1]))

        def run(lay):
            # the row over Z[z], spread over the z field of its keys
            enc = lay.enc
            return _Rows(n, ZP, rank, lay, [lowest_terms(add_terms({}, (
                (enc[i, a, b, e + k], c)
                for (i, a, b, e), p in zip(keys, nums)
                for k, c in enumerate(p) if c)), top)
                for keys, nums, top in cleared])

        return IntegralPresentation(n, side, rank,
                                    widening(run, layout(n, False)))

    def module(self):
        return PresentedModule(self.n, ZP, self.side, self.rank, self._kernel)

    def generic_fiber_module(self):
        """The module over Q(z): in each kernel row the terms of one key
        without z give the coefficients of one ZPoly."""
        lay = self._kernel.layout
        rows = []
        for row, d in self._kernel.rows:
            polys = {}
            for m, c in row.items():
                key, e = lay.z_split(m)
                polys.setdefault(key, {})[e] = c
            rows.append(({k: ZPoly([p.get(e, 0) for e in range(max(p) + 1)])
                          for k, p in polys.items()}, ZPoly((d,))))
        return PresentedModule(self.n, QZ, self.side, self.rank,
                               _Rows(self.n, QZ, self.rank, lay, rows))

    def __repr__(self):
        return "IntegralPresentation(W_%d(Q[z]), %s, %d gens, %d rows%s)" % (
            self.n, self.side, self.rank, len(self._kernel.rows),
            ", saturated" if self.saturated else "")


def make_lattice(P):
    """Saturate the relations so the cokernel is z-torsion-free."""
    if P.saturated:
        return P
    rows = P._kernel
    if rows.rows:
        rows = _saturate(rows, _gb(rows, bernstein_order(P.n)))
    return IntegralPresentation(P.n, P.side, P.rank, rows, saturated=True)


class ReductionReport:
    __slots__ = ("reduced_module", "is_zero", "char_cycle_of_reduction",
                 "minimal_dimension_verdict", "generic_fiber_is_zero")

    def __init__(self, reduced_module, is_zero, cycle, verdict,
                 generic_fiber_is_zero=None):
        self.reduced_module = reduced_module
        self.is_zero = is_zero
        self.char_cycle_of_reduction = cycle
        self.minimal_dimension_verdict = verdict
        self.generic_fiber_is_zero = generic_fiber_is_zero


def _reduced_module(side, rows):
    """The reduction mod z of kernel relation rows over Q[z].

    A module over QQ on the given side: each row keeps its terms without
    z, in lowest terms, and a row that z divides is dropped.
    """
    n, rank, lay = rows.n, rows.rank, rows.layout
    reduced = []
    for row, d in rows.rows:
        row = lay.z_free(row)
        if row:
            reduced.append(lowest_terms(row, d))
    return PresentedModule(n, QQ, side, rank, _Rows(n, QQ, rank, lay, reduced))


def reduce_mod_z(P, with_generic_diagnostic=False):
    """Reduction of a saturated presentation; flags the zero case.

    A zero reduction forces the completed module itself to be zero, so the
    flag is authoritative even when the generic fiber over Q(z) is not.
    """
    if not P.saturated:
        raise NotSaturated("reduce after make_lattice, not before")
    reduced = _reduced_module(P.side, P._kernel)
    zero = reduced.is_zero()
    cycle = None
    verdict = None
    if not zero:
        verdict = is_minimal_dimension(reduced)
        try:
            cycle = char_cycle(reduced)
        except UnsupportedAmbient:
            cycle = None
    generic_zero = None
    if with_generic_diagnostic:
        generic_zero = P.generic_fiber_module().is_zero()
    return ReductionReport(reduced, zero, cycle, verdict, generic_zero)


def minimal_dimension_via_reduction(P):
    """Theorem-level holonomicity test for the completed module."""
    report = reduce_mod_z(make_lattice(P))
    if report.is_zero:
        return False
    return report.minimal_dimension_verdict


def good_lattice(P):
    """The double-dual lattice: integral Ext^n twice, torsion removed.

    Dualizing once gives the opposite-side integral module; quotienting by
    its z-torsion (saturation of the presentation) is the construction the
    torsion submodule T was introduced for.  Dualizing back and saturating
    again yields a presentation whose reduction is checked to be of
    minimal dimension.  Each saturation starts from the basis the zero
    test of its dual already built.
    """
    base = make_lattice(P)
    if not minimal_dimension_via_reduction(base):
        raise NotMinimalDimension(
            "good lattice construction needs a minimal-dimension module")
    M = base.module()
    n = P.n
    E1 = ext(n, M)
    if E1.is_zero():
        raise InternalInvariant("integral dual of a holonomic avatar vanished")
    V = PresentedModule(n, ZP, E1.side, E1.rank,
                        _saturate(E1._relations(), E1.gb()))
    E2 = ext(n, V)
    if E2.is_zero():
        raise InternalInvariant("integral double dual vanished")
    out = IntegralPresentation(n, P.side, E2.rank,
                               _saturate(E2._relations(), E2.gb()),
                               saturated=True)
    if not minimal_dimension_via_reduction(out):
        raise InternalInvariant("good lattice reduction lost minimal "
                                "dimension")
    return out


class Lattice:
    """A lattice of the avatar's module, given by generator rows.

    gens = None means the standard generators.  The presentation of the
    lattice module has relations {u : u . gens in saturated relations};
    that relation module is automatically z-saturated, because the
    saturated relation span admits no new z-divisions.
    """

    __slots__ = ("avatar", "gens")

    def __init__(self, avatar, gens=None):
        self.avatar = make_lattice(avatar)
        self.gens = list(gens) if gens is not None else None

    def generator_rows(self):
        return self._generators().vecs()

    def _generators(self):
        """The generators as kernel rows: the units e_j, or gens cleared."""
        A = self.avatar
        if self.gens is not None:
            return _Rows.of(A.n, ZP, A.rank, self.gens)
        lay = A._kernel.layout
        return _Rows(A.n, ZP, A.rank, lay, _units(lay, A.rank))

    def presentation(self):
        """Relations {u : u . gens in the avatar's relation span}.

        For the standard generators these are the avatar's rows negated,
        in order and without repeats: what preimage_rows(units, A.rows)
        returns, without its syzygy computation.  Kernel rows are in
        lowest terms, so a repeat is an equal pair.  A reduced basis has
        no repeats and its negation, made primitive, is itself, so rows
        marked reduced (groebner._Rows.reduced) keep the mark.
        """
        A = self.avatar
        rows = A._kernel
        if self.gens is None:
            rank, negated = A.rank, {}
            for row, d in rows.rows:
                negated.setdefault((frozenset(row.items()), d),
                                   ({k: -c for k, c in row.items()}, d))
            rels = _Rows(A.n, ZP, rank, rows.layout, list(negated.values()),
                         reduced=rows.reduced)
        else:
            rank, rels = len(self.gens), []
            if self.gens:
                rels = _preimage(self._generators().stacked(rows), rank)
        return IntegralPresentation(A.n, A.side, rank, rels, saturated=True)


class CompareReport:
    __slots__ = ("cycle_first", "cycle_second", "equal",
                 "multiplicity_first", "multiplicity_second",
                 "verdict_first", "verdict_second", "zero_both")

    def __init__(self, cycle_first, cycle_second, verdict_first,
                 verdict_second, zero_both):
        self.cycle_first = cycle_first
        self.cycle_second = cycle_second
        self.verdict_first = verdict_first
        self.verdict_second = verdict_second
        self.zero_both = zero_both
        self.equal = cycle_first == cycle_second
        self.multiplicity_first = cycle_first.total() if cycle_first else 0
        self.multiplicity_second = cycle_second.total() if cycle_second else 0


def _containment_power(gens, span, zpower):
    """Least a <= zpower with z^a g inside the span, worst over gens.

    gens and span are kernel rows over ZP; None when some generator needs
    a higher power.  Multiplying by z shifts the keys of a row.
    """
    gb = _gb(span, bernstein_order(span.n))

    def run(lay):
        basis = gb._kernel(lay)
        lay = basis.layout
        keys = gb.order.packed(lay)
        worst = 0
        for row, _d in gens.on(lay):
            for a in range(zpower + 1):
                if not _reduce(row, basis, keys)[0]:
                    break
                row = lay.z_shifted(row, 1)
            else:
                return None
            worst = max(worst, a)
        return worst

    return widening(run, gens.layout)


def compare_lattices(first, second, zpower=8):
    """Reduce two lattices of one module and compare their cycles.

    The same-module precondition is enforced: the avatars must present the
    same relation submodule, and each lattice's generators must land in
    the other lattice up to a z power bounded by zpower.
    """
    if zpower < 0:
        raise IndexOutOfRange("z power %d is negative" % zpower)
    if not isinstance(first, Lattice):
        first = Lattice(first)
    if not isinstance(second, Lattice):
        second = Lattice(second)
    A, B = first.avatar, second.avatar
    if A.n != B.n or A.rank != B.rank or A.side != B.side:
        raise NotSameModule("avatars live in different ambients")
    if A is not B and not submodule_equal(A.rows, B.rows):
        raise NotSameModule("avatar relation modules differ")
    gens_a, gens_b = first._generators(), second._generators()
    a_in_b = _containment_power(gens_a, gens_b.stacked(B._kernel), zpower)
    b_in_a = _containment_power(gens_b, gens_a.stacked(A._kernel), zpower)
    if a_in_b is None or b_in_a is None:
        raise NotSameModule(
            "mutual containment fails within z power %d" % zpower)
    rep_a = reduce_mod_z(first.presentation())
    rep_b = reduce_mod_z(second.presentation())
    if rep_a.is_zero and rep_b.is_zero:
        return CompareReport(CharCycle(), CharCycle(), None, None, True)
    return CompareReport(rep_a.char_cycle_of_reduction,
                         rep_b.char_cycle_of_reduction,
                         rep_a.minimal_dimension_verdict,
                         rep_b.minimal_dimension_verdict,
                         False)


class KunnethReport:
    __slots__ = ("i", "ext_integral_reduced", "ext_of_reduction",
                 "tor_term", "zero_pattern_ok", "cycles", "additivity_ok")

    def __init__(self, i, term_a, term_b, term_c):
        self.i = i
        self.ext_integral_reduced = term_a
        self.ext_of_reduction = term_b
        self.tor_term = term_c
        a0, b0, c0 = (term_a.is_zero(), term_b.is_zero(), term_c.is_zero())
        self.zero_pattern_ok = (b0 == (a0 and c0))
        cycles = {}
        for name, mod, flag in (("a", term_a, a0), ("b", term_b, b0),
                                ("c", term_c, c0)):
            if flag:
                cycles[name] = CharCycle()
            else:
                try:
                    cycles[name] = char_cycle(mod)
                except UnsupportedAmbient:
                    cycles[name] = None
        self.cycles = cycles
        if None in cycles.values():
            self.additivity_ok = None
        else:
            self.additivity_ok = (cycles["b"] ==
                                  cycles["a"] + cycles["c"])


def kunneth_check(P, i):
    """The three terms of the reduction sequence for Ext^i.

    (a) the integral Ext^i reduced mod z, (b) Ext^i of the reduction,
    (c) the Tor term, realized as the z-torsion of the integral Ext^(i+1)
    presented over Q.  The sequence forces cycle(b) = cycle(a) + cycle(c).

    A term an invariant decides is the zero module, with no Ext built.
    Ext^j of a nonzero module vanishes below its grade g, which reads its
    basis (modules.grade); a lattice from make_lattice or
    Lattice.presentation hands that basis over (groebner._Rows.reduced).
    So (a) is zero for i < g, (b) for i below g and the grade of M/zM,
    and (c) for i + 1 < g.  Otherwise (c) is (N : z) / N for N the
    relations of Ext^(i+1), and it is zero when no lead of N's reduced
    basis under bernstein_order holds z: if z f lies in N, so does z r
    for r the normal form of f, and a nonzero r would have its lead
    z lead(r) divided by some z-free lead, which then divides lead(r),
    as no remainder's lead is.  So N : z = N and no colon is computed.
    """
    if not 0 <= i <= P.n:
        raise IndexOutOfRange("kunneth index %d outside 0..%d" % (i, P.n))
    if not P.saturated:
        raise NotSaturated("kunneth terms are defined for saturated input")
    M = P.module()
    g = grade(M)
    zero = PresentedModule(P.n, QQ, M.opposite_side(), 0, _Rows(
        P.n, QQ, 0, P._kernel.layout, [], reduced=bernstein_order(P.n)))
    term_a = term_b = term_c = zero
    if i >= g:
        E = ext(i, M)
        term_a = _reduced_module(E.side, E._relations())
    reduction = _reduced_module(P.side, P._kernel)
    if i >= g or i >= grade(reduction):
        term_b = ext(i, reduction)
    if i + 1 >= g:
        E = ext(i + 1, M)
        relations = E._relations()
        if not relations.rows or _z_in_leads(E.gb(), relations.layout):
            torsion = _colon(relations)
            m = len(torsion.rows)
            preimage = _preimage(torsion.stacked(relations), m) if m else \
                _Rows(P.n, ZP, 0, relations.layout, [])
            term_c = _reduced_module(E.side, preimage)
    return KunnethReport(i, term_a, term_b, term_c)


def _z_in_leads(gb, lay):
    """Whether a lead of the kernel basis of gb holds z."""
    basis = gb._kernel(lay)
    return any(basis.layout.z_split(m)[1] for m in basis.leads)
