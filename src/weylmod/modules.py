"""
Finitely presented one-sided modules over W_n and their invariants.

A PresentedModule always stores left data: a right module is carried
through the transposition anti-automorphism (x -> x, d -> -d) at
construction, and the side tag remembers which object is meant.  One
Groebner engine then serves both sides.

Invariants follow the Bernstein filtration with all generators placed in
degree 0: the leading-term module of a Groebner basis presents the
associated graded, so dimension and multiplicities are combinatorics of
monomial ideals.
"""

from itertools import combinations

from ._linalg import add_terms
from .errors import (IndexOutOfRange, NotMinimalDimension, RankMismatch,
                     UnsupportedAmbient, ZeroModule)
from .scalars import INF
from .groebner import (FreeResolution, FreeVec, _gb, _nonzero_rows,
                       _preimage, _Rows, _syz, bernstein_order, preimage_rows)
from .weyl import H1, QQ, QZ, ZP, transpose

LEFT = "left"
RIGHT = "right"


def homological_bound(n, ring):
    """Global dimension of the coefficient choice: n over a field, n+1 over Q[z].

    The homogenized W_n, where h^2 is the commutator [d, x], is a graded
    algebra of global dimension 2n + 1, as is its graded ring Q[h][x, xi].
    """
    if ring == H1:
        return 2 * n + 1
    return n + 1 if ring == ZP else n


def matrix_rows(entries, rank=None):
    """The rank and the nonzero rows of a relation matrix.

    The rank is the one given, else the width of the first nonempty row,
    else 1; a nonempty row of another width raises RankMismatch.
    """
    if rank is None:
        rank = next((len(row) for row in entries if row), 1)
    for row in entries:
        if row and len(row) != rank:
            raise RankMismatch("row of width %d in a presentation of rank %d"
                               % (len(row), rank))
    return rank, [row for row in entries
                  if not all(w.is_zero() for w in row)]


class PresentedModule:
    """Relations rows of a module over W_n, with what is known of it.

    The relations enter the Groebner kernel once, as _Rows (_kernel):
    cleared from FreeVec rows on first use, or handed over as the kernel
    rows they were computed as (an Ext module, a lattice and its
    reduction mod z), which over H1 carry the degree of each generator;
    their FreeVecs are then built only when rows is first read.  Its
    basis and its resolution both start from the kernel rows; the basis,
    the resolution and each Ext^i are computed once and kept.
    """

    __slots__ = ("n", "ring", "side", "rank", "_rows", "_gb", "_res", "_ext",
                 "_kernel")

    def __init__(self, n, ring, side, rank, rows):
        """rows: FreeVecs of W_n^rank, or nonzero kernel rows as _Rows."""
        kernel, rows = (rows, None) if isinstance(rows, _Rows) else \
            (None, _nonzero_rows(rows, rank))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_gb", None)
        object.__setattr__(self, "_res", None)
        object.__setattr__(self, "_ext", {})
        object.__setattr__(self, "_kernel", kernel)

    def __setattr__(self, name, value):
        raise AttributeError("PresentedModule is immutable")

    @property
    def rows(self):
        """The relations as FreeVecs."""
        return self._kernel.vecs() if self._rows is None else self._rows

    @staticmethod
    def from_matrix(n, ring, entries, side=LEFT, rank=None):
        """entries: list of relation rows, each a list of WeylElements."""
        rank, entries = matrix_rows(entries, rank)
        if side == RIGHT:
            entries = [[transpose(w) for w in row] for row in entries]
        rows = [FreeVec.from_entries(row, rank=rank) for row in entries]
        return PresentedModule(n, ring, side, rank, rows)

    def _relations(self):
        """The relations as kernel rows, built on the first call."""
        if self._kernel is None:
            object.__setattr__(self, "_kernel", _Rows.of(
                self.n, self.ring, self.rank, self._rows))
        return self._kernel

    def gb(self):
        if self._gb is None:
            object.__setattr__(self, "_gb", _gb(self._relations(),
                                                bernstein_order(self.n)))
        return self._gb

    def is_zero(self):
        return self.gb().is_full_module()

    def resolution(self, stage):
        """The free resolution through `stage`, or to its zero kernel.

        Computed on demand: a later call resolves only the stages past the
        last one known.
        """
        if self._res is None:
            object.__setattr__(self, "_res", FreeResolution(
                [self._relations()], False))
        return self._res.extend(stage)

    def opposite_side(self):
        return RIGHT if self.side == LEFT else LEFT

    def __repr__(self):
        return "PresentedModule(W_%d/%s, %s, %d gens, %d relations)" % (
            self.n, self.ring, self.side, self.rank,
            len(self._relations().rows))


class CharCycle:
    """Formal sum of components of the characteristic variety.

    Labels: ("x", i) for the divisor x_i = 0, ("xi", i) for xi_i = 0,
    ("full",) for a full-support component.  Addition is multiset union.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        data = dict(parts)
        object.__setattr__(self, "parts",
                           {k: m for k, m in data.items() if m})

    def __setattr__(self, name, value):
        raise AttributeError("CharCycle is immutable")

    def __add__(self, other):
        return CharCycle(add_terms(dict(self.parts), other.parts.items()))

    def __eq__(self, other):
        if not isinstance(other, CharCycle):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(frozenset(self.parts.items()))

    def is_zero(self):
        return not self.parts

    def total(self):
        return sum(self.parts.values())

    @staticmethod
    def _label(key):
        if key == ("full",):
            return "(0)"
        kind, i = key
        return "(%s%d)" % (kind, i)

    def sorted_items(self):
        def sortkey(kv):
            key = kv[0]
            if key == ("full",):
                return (2, 0)
            return (0 if key[0] == "x" else 1, key[1])
        return sorted(self.parts.items(), key=sortkey)

    def as_dict(self):
        return {self._label(k): m for k, m in self.sorted_items()}

    def __repr__(self):
        if not self.parts:
            return "{}"
        return "{" + ", ".join("%s: %d" % (self._label(k), m)
                               for k, m in self.sorted_items()) + "}"


def _leading_monomials_by_comp(M):
    by_comp = {j: [] for j in range(M.rank)}
    for (comp, a, b, e), _c in M.gb().leads:
        by_comp[comp].append((a, b, e))
    return by_comp


def _monomial_ideal_dimension(gens, nvars):
    """Krull dimension of k[y_1..y_m]/I for a monomial ideal.

    The dimension is the largest coordinate subspace avoiding every
    generator's support; generators containing a unit force the empty
    module, reported as -1.
    """
    supports = []
    for expvec in gens:
        s = frozenset(i for i, v in enumerate(expvec) if v)
        if not s:
            return -1
        supports.append(s)
    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            sset = set(subset)
            if all(not s <= sset for s in supports):
                return size
    return -1


def _dimension(M):
    """Krull dimension of gr(M) from its leads; z or h counts as a variable."""
    z = M.ring in (ZP, H1)
    return max(_monomial_ideal_dimension(
        [a + b + ((e,) if z else ()) for a, b, e in gens], 2 * M.n + z)
        for gens in _leading_monomials_by_comp(M).values())


def hilbert_dimension(M):
    """Dimension of the support of gr(M), Bernstein filtration."""
    if M.ring not in (QQ, QZ):
        raise UnsupportedAmbient("dimension theory runs over field scalars")
    if M.is_zero():
        raise ZeroModule("the zero module has empty support")
    return _dimension(M)


def char_cycle(M):
    """Characteristic cycle from the leading-term module.

    The multiplicity along (x_i), or (xi_i), is the least exponent of x_i,
    or d_i, over the leading monomials of a component.  That is the cycle
    of its monomial ideal when n = 1 or when the ideal is principal; n > 1
    is supported only there, or where the ideal is zero.
    """
    if M.ring not in (QQ, QZ):
        raise UnsupportedAmbient("characteristic cycles need field scalars")
    if M.is_zero():
        raise ZeroModule("the zero module has no characteristic cycle")
    by_comp = _leading_monomials_by_comp(M)
    cycle = CharCycle()
    for j in range(M.rank):
        gens = by_comp[j]
        if not gens:
            cycle = cycle + CharCycle({("full",): 1})
            continue
        if any(sum(a) + sum(b) == 0 for (a, b, _e) in gens):
            continue
        if M.n > 1 and len(gens) != 1:
            raise UnsupportedAmbient(
                "characteristic cycle for n > 1 needs a principal "
                "leading ideal")
        parts = {}
        for name, side in (("x", 0), ("xi", 1)):
            for i in range(M.n):
                v = min(g[side][i] for g in gens)
                if v:
                    parts[(name, i + 1)] = v
        cycle = cycle + CharCycle(parts)
    return cycle


def ext(i, M):
    """Ext^i(M, W) as a presented module of the opposite side.

    Computed as cohomology of the transposed dual of a free resolution:
    at position i the outgoing map is v -> v . C_i with C_i the
    tau-transpose of stage i, the incoming image is spanned by the rows
    of the tau-transpose of stage i-1.  Each Ext^i is computed once per
    module and kept beside its basis and resolution, which is resolved
    only through stage i and builds each tau-transpose once
    (FreeResolution.dual), so Ext^i and Ext^(i+1) share that of stage i.
    """
    bound = homological_bound(M.n, M.ring)
    if i < 0 or i > bound:
        raise IndexOutOfRange("ext index %d outside 0..%d" % (i, bound))
    if i not in M._ext:
        M._ext[i] = _ext_of_resolution(i, M)
    return M._ext[i]


def _ext_of_resolution(i, M):
    res = M.resolution(i)
    ranks, stages = res.ranks, res.stages
    # a resolution complete before stage i has no free module there
    s_i = ranks[i] if i < len(ranks) else 0
    if s_i == 0:
        return PresentedModule(M.n, M.ring, M.opposite_side(), 0, [])
    image = res.dual(i - 1) if i >= 1 else None
    out = res.dual(i) if i < len(stages) else None
    if out is not None and any(row for row, _d in out.rows):
        kernel = _syz(out)
    else:
        kernel = _Rows.of(M.n, M.ring, s_i,
                          [FreeVec.unit(M.n, M.ring, s_i, j)
                           for j in range(s_i)], image and image.offsets)
    m = len(kernel.rows)
    relations = _preimage(kernel if image is None else kernel.stacked(image),
                          m)
    return PresentedModule(M.n, M.ring, M.opposite_side(), m, relations)


def grade(M):
    """Least i with Ext^i(M, W) nonzero; +infinity exactly for the zero module.

    The ring is Auslander regular and its graded ring regular: K[x, xi] of
    dimension 2n over K = QQ or Q(z); Q[z][x, xi] or Q[h][x, xi], with z or
    h in Bernstein degree 0, of dimension 2n + 1 over Q[z] or H1.  So a
    nonzero module has grade + dimension = that number, z or h counted
    (Bjork, Rings of Differential Operators, ch. 2; Li and Van Oystaeyen,
    Zariskian Filtrations, 1996): the grade reads the module's own basis.
    """
    if M.is_zero():
        return INF
    return 2 * M.n + (M.ring in (ZP, H1)) - _dimension(M)


def is_minimal_dimension(M):
    """dim(M) = n, equivalently grade(M) = n: the holonomicity test.

    False for the zero module.  Reads only the module's Groebner basis.
    """
    if M.ring not in (QQ, QZ):
        raise UnsupportedAmbient("minimal dimension is a field-coefficient test")
    if M.is_zero():
        return False
    return hilbert_dimension(M) == M.n


def dual_star(M):
    """The holonomic dual Ext^n(M, W), an opposite-side module."""
    if not is_minimal_dimension(M):
        raise NotMinimalDimension("dual defined for minimal-dimension modules")
    return ext(M.n, M)


def submodule_presentation(M, extra_rows):
    """The submodule of M generated by the images of extra_rows."""
    extra = [r for r in extra_rows if r.terms]
    relations = preimage_rows(extra, M.rows)
    return PresentedModule(M.n, M.ring, M.side, len(extra), relations)


def quotient_presentation(M, extra_rows):
    """M modulo the submodule generated by the images of extra_rows."""
    rows = M.rows + [r for r in extra_rows if r.terms]
    return PresentedModule(M.n, M.ring, M.side, M.rank, rows)
