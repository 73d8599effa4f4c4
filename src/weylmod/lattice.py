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
"""

from fractions import Fraction

from ._linalg import add_terms, clear
from .errors import IndexOutOfRange, InternalInvariant, NonIntegral, \
    NotMinimalDimension, NotSameModule, NotSaturated, UnsupportedAmbient
from .groebner import (FreeVec, _nonzero_rows, _saturate, bernstein_order,
                       buchberger, colon_z, preimage_rows, saturate_z,
                       submodule_equal)
from .modules import (LEFT, CharCycle, PresentedModule, char_cycle, ext,
                      is_minimal_dimension, matrix_rows)
from .weyl import (QQ, QZ, ZP, WeylAlgebra, convert_ring,
                   reduce_element_mod_z)


class IntegralPresentation:
    __slots__ = ("n", "side", "rank", "rows", "saturated")

    def __init__(self, n, side, rank, rows, saturated=False):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "rows", _nonzero_rows(rows, rank))
        object.__setattr__(self, "saturated", saturated)

    def __setattr__(self, name, value):
        raise AttributeError("IntegralPresentation is immutable")

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
        rows = []
        for row in entries:
            for w in row:
                if not all(c.is_integral() for c in w.terms.values()):
                    raise NonIntegral(
                        "entry %s has a denominator vanishing at z = 0"
                        % (w,))
            keys = [(i, a, b, e) for i, w in enumerate(row)
                    for a, b, e in w.terms]
            nums, den = clear(c for w in row for c in w.terms.values())
            top = den[-1]
            rows.append(FreeVec(n, ZP, rank, add_terms({}, (
                ((i, a, b, e + k), Fraction(c, top))
                for (i, a, b, e), p in zip(keys, nums)
                for k, c in enumerate(p) if c))))
        return IntegralPresentation(n, side, rank, rows)

    def module(self):
        return PresentedModule(self.n, ZP, self.side, self.rank, self.rows)

    def generic_fiber_module(self):
        rows = [r.map_entries(lambda w: convert_ring(w, QZ))
                for r in self.rows]
        return PresentedModule(self.n, QZ, self.side, self.rank, rows)

    def __repr__(self):
        return "IntegralPresentation(W_%d(Q[z]), %s, %d gens, %d rows%s)" % (
            self.n, self.side, self.rank, len(self.rows),
            ", saturated" if self.saturated else "")


def make_lattice(P):
    """Saturate the relations so the cokernel is z-torsion-free."""
    if P.saturated:
        return P
    rows = saturate_z(P.rows, P.rank)
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


def reduce_rows_mod_z(rows):
    out = [r.map_entries(reduce_element_mod_z) for r in rows]
    return [r for r in out if r.terms]


def _reduced_module(P):
    """The reduction mod z of a presentation over Q[z], a module over QQ."""
    return PresentedModule(P.n, QQ, P.side, P.rank, reduce_rows_mod_z(P.rows))


def reduce_mod_z(P, with_generic_diagnostic=False):
    """Reduction of a saturated presentation; flags the zero case.

    A zero reduction forces the completed module itself to be zero, so the
    flag is authoritative even when the generic fiber over Q(z) is not.
    """
    if not P.saturated:
        raise NotSaturated("reduce after make_lattice, not before")
    reduced = _reduced_module(P)
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
    rows1 = _saturate(E1.rows, E1.rank, E1.gb())
    V = PresentedModule(n, ZP, E1.side, E1.rank, rows1)
    E2 = ext(n, V)
    if E2.is_zero():
        raise InternalInvariant("integral double dual vanished")
    rows2 = _saturate(E2.rows, E2.rank, E2.gb())
    out = IntegralPresentation(n, P.side, E2.rank, rows2, saturated=True)
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
        if self.gens is not None:
            return self.gens
        A = self.avatar
        return [FreeVec.unit(A.n, ZP, A.rank, j) for j in range(A.rank)]

    def presentation(self):
        """Relations {u : u . gens in the avatar's relation span}.

        For the standard generators these are the avatar's rows negated,
        in order and without repeats: what preimage_rows(units, A.rows)
        returns, without its syzygy computation.
        """
        A = self.avatar
        if self.gens is None:
            rank, rels = A.rank, dict.fromkeys(-r for r in A.rows)
        else:
            rank, rels = len(self.gens), preimage_rows(self.gens, A.rows)
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


def _containment_power(gens_small, span_rows, n, zpower):
    """Least a <= zpower with z^a g inside the ZP row span, per generator."""
    gb = buchberger(span_rows, bernstein_order(n))
    z = WeylAlgebra(n, ZP).z()
    worst = 0
    for g in gens_small:
        for a in range(zpower + 1):
            if gb.contains(g):
                break
            g = g.mul_left(z)
        else:
            return None
        worst = max(worst, a)
    return worst


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
    span_a = first.generator_rows() + A.rows
    span_b = second.generator_rows() + B.rows
    a_in_b = _containment_power(first.generator_rows(), span_b, A.n, zpower)
    b_in_a = _containment_power(second.generator_rows(), span_a, A.n,
                                zpower)
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
    """
    if not P.saturated:
        raise NotSaturated("kunneth terms are defined for saturated input")
    M = P.module()
    term_a = _reduced_module(ext(i, M))
    term_b = ext(i, _reduced_module(P))
    Enext = ext(i + 1, M)
    torsion_gens = colon_z(Enext.rows, Enext.rank)
    term_c = _reduced_module(IntegralPresentation(
        P.n, Enext.side, len(torsion_gens),
        preimage_rows(torsion_gens, Enext.rows)))
    return KunnethReport(i, term_a, term_b, term_c)
