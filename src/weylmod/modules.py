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
from .errors import (IndexOutOfRange, InternalInvariant, NotMinimalDimension,
                     RankMismatch, UnsupportedAmbient, ZeroModule)
from .scalars import INF
from .groebner import (FreeVec, bernstein_order, buchberger,
                       free_resolution, preimage_rows, syz_of_list)
from .weyl import QQ, QZ, ZP, transpose

LEFT = "left"
RIGHT = "right"


def homological_bound(n, ring):
    """Global dimension of the coefficient choice: n over a field, n+1 over Q[z]."""
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
    __slots__ = ("n", "ring", "side", "rank", "rows", "_gb", "_res", "_ext")

    def __init__(self, n, ring, side, rank, rows):
        rows = [r for r in rows if r.terms]
        for r in rows:
            if r.rank != rank:
                raise RankMismatch("relation rank %d vs %d" % (r.rank, rank))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_gb", None)
        object.__setattr__(self, "_res", None)
        object.__setattr__(self, "_ext", {})

    def __setattr__(self, name, value):
        raise AttributeError("PresentedModule is immutable")

    @staticmethod
    def from_matrix(n, ring, entries, side=LEFT, rank=None):
        """entries: list of relation rows, each a list of WeylElements."""
        rank, entries = matrix_rows(entries, rank)
        if side == RIGHT:
            entries = [[transpose(w) for w in row] for row in entries]
        rows = [FreeVec.from_entries(row, rank=rank) for row in entries]
        return PresentedModule(n, ring, side, rank, rows)

    def gb(self):
        if self._gb is None:
            object.__setattr__(self, "_gb",
                               buchberger(self.rows, bernstein_order(self.n)))
        return self._gb

    def is_zero(self):
        if not self.rows:
            return self.rank == 0
        return self.gb().is_full_module()

    def resolution(self, stage):
        """The free resolution through `stage`, or to its zero kernel.

        Computed on demand: a later call resolves only the stages past the
        last one known, starting from that stage's rows.
        """
        res = self._res
        if res is None:
            object.__setattr__(self, "_res", free_resolution(
                self.rows, self.rank, stage))
        elif not res.complete and len(res.matrices) <= stage:
            tail = free_resolution(res.matrices[-1], res.ranks[-2],
                                   stage + 1 - len(res.matrices))
            res.matrices += tail.matrices[1:]
            res.ranks += tail.ranks[2:]
            res.complete = tail.complete
        return self._res

    def opposite_side(self):
        return RIGHT if self.side == LEFT else LEFT

    def __repr__(self):
        return "PresentedModule(W_%d/%s, %s, %d gens, %d relations)" % (
            self.n, self.ring, self.side, self.rank, len(self.rows))


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
    for (comp, a, b, _e), _c in M.gb().leads:
        by_comp[comp].append((a, b))
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


def hilbert_dimension(M):
    """Dimension of the support of gr(M), Bernstein filtration."""
    if M.ring not in (QQ, QZ):
        raise UnsupportedAmbient("dimension theory runs over field scalars")
    if M.is_zero():
        raise ZeroModule("the zero module has empty support")
    by_comp = _leading_monomials_by_comp(M)
    best = -1
    for j in range(M.rank):
        gens = [a + b for (a, b) in by_comp[j]]
        d = _monomial_ideal_dimension(gens, 2 * M.n)
        best = max(best, d)
    return best


def char_cycle(M):
    """Characteristic cycle from the leading-term module.

    n = 1: multiplicities along (x1) and (xi1) are the minimal exponents
    in each component's monomial ideal.  General n is supported when each
    component's leading ideal is principal or zero.
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
        if any(sum(a) + sum(b) == 0 for (a, b) in gens):
            continue
        if M.n == 1:
            ma = min(a[0] for (a, _b) in gens)
            mb = min(b[0] for (_a, b) in gens)
            parts = {}
            if ma:
                parts[("x", 1)] = ma
            if mb:
                parts[("xi", 1)] = mb
            cycle = cycle + CharCycle(parts)
        else:
            if len(gens) != 1:
                raise UnsupportedAmbient(
                    "characteristic cycle for n > 1 needs a principal "
                    "leading ideal")
            a, b = gens[0]
            parts = {}
            for i, v in enumerate(a):
                if v:
                    parts[("x", i + 1)] = v
            for i, v in enumerate(b):
                if v:
                    parts[("xi", i + 1)] = v
            cycle = cycle + CharCycle(parts)
    return cycle


def _tau_dual_rows(matrix_rows, source_rank):
    """Transpose a stage map and push it through the anti-automorphism.

    The dual of (u -> u . A) on column vectors becomes, in transposed
    coordinates, the left-module map v -> v . C with C[j][i] = tau(A[i][j]).
    """
    if not matrix_rows:
        return []
    target = len(matrix_rows)
    rows = []
    for j in range(source_rank):
        entries = [transpose(r.entry(j)) for r in matrix_rows]
        rows.append(FreeVec.from_entries(entries, rank=target))
    return rows


def ext(i, M):
    """Ext^i(M, W) as a presented module of the opposite side.

    Computed as cohomology of the transposed dual of a free resolution:
    at position i the outgoing map is v -> v . C_i with C_i the
    tau-transpose of stage i, the incoming image is spanned by the rows
    of the tau-transpose of stage i-1.  Each Ext^i is computed once per
    module and kept beside its basis and resolution, which is resolved
    only through stage i.
    """
    bound = homological_bound(M.n, M.ring)
    if i < 0 or i > bound:
        raise IndexOutOfRange("ext index %d outside 0..%d" % (i, bound))
    if i not in M._ext:
        M._ext[i] = _ext_of_resolution(i, M)
    return M._ext[i]


def _ext_of_resolution(i, M):
    res = M.resolution(i)
    ranks = res.ranks
    # a resolution complete before stage i has no free module there
    s_i = ranks[i] if i < len(ranks) else 0
    if s_i == 0:
        return PresentedModule(M.n, M.ring, M.opposite_side(), 0, [])
    out_rows = _tau_dual_rows(res.matrices[i], s_i) \
        if i < len(res.matrices) else []
    image_rows = _tau_dual_rows(res.matrices[i - 1], ranks[i - 1]) \
        if i >= 1 else []
    image_rows = [r for r in image_rows if r.terms]
    if out_rows and any(r.terms for r in out_rows):
        kernel = syz_of_list(out_rows)
    else:
        kernel = [FreeVec.unit(M.n, M.ring, s_i, j) for j in range(s_i)]
    relations = preimage_rows(kernel, image_rows)
    return PresentedModule(M.n, M.ring, M.opposite_side(),
                           len(kernel), relations)


def grade(M):
    """Least i with Ext^i(M, W) nonzero; +infinity exactly for the zero module.

    Over the fields QQ and Q(z), W_n is Auslander regular, so
    grade + dimension = 2n for a nonzero module (Bjork, Rings of
    Differential Operators, ch. 2): the grade is read off the module's own
    Groebner basis and no Ext is resolved.  Over Q[z] the Ext groups are
    resolved in order up to the first nonzero one.
    """
    if M.is_zero():
        return INF
    if M.ring in (QQ, QZ):
        return 2 * M.n - hilbert_dimension(M)
    bound = homological_bound(M.n, M.ring)
    for i in range(bound + 1):
        if not ext(i, M).is_zero():
            return i
    raise InternalInvariant("nonzero module with no Ext in homological "
                            "range")


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
