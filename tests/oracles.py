"""Independent oracles used to cross-check the engine.

Membership is decided by plain linear algebra: span all left monomial
multiples m*g with deg(m) + deg(g) below a bound and row reduce.  No
Groebner machinery is involved, so agreement is meaningful.

The grade is taken by its definition, the least i with Ext^i(M, W) != 0,
from free resolutions; the engine reads it off the dimension instead.
"""

from weylmod import INF, WeylAlgebra, bernstein_degree, ext
from weylmod._linalg import Echelon
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
            ech.add(dict(prod.terms))
    rem = ech.reduce(dict(v.terms))
    return not rem


def ext_grade(M):
    """min{i : Ext^i(M, W) != 0}, +infinity when every Ext vanishes."""
    for i in range(homological_bound(M.n, M.ring) + 1):
        if not ext(i, M).is_zero():
            return i
    return INF
