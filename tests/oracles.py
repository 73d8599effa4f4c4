"""Independent oracles used to cross-check the engine.

Membership is decided by plain linear algebra: span all left monomial
multiples m*g with deg(m) + deg(g) below a bound and row reduce.  No
Groebner machinery is involved, so agreement is meaningful.

Normal forms are checked against textbook left division over the
coefficient field, written with public FreeVec arithmetic only.

The grade is taken by its definition, the least i with Ext^i(M, W) != 0,
from free resolutions; the engine reads it off the dimension instead.
"""

from weylmod import (INF, FreeVec, WeylAlgebra, bernstein_degree, ext,
                     leading_term)
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


def field_normal_form(v, basis, order):
    """Remainder of left division of v by a list of FreeVec, over the field.

    Each step takes the leading term c m of what is left.  If the first
    element g whose lead l t divides m exists, it subtracts (c / l) (m / t) g;
    otherwise it moves c m to the remainder.
    """
    leads = [leading_term(g, order) if g else None for g in basis]
    rem = FreeVec.zero(v.n, v.ring, v.rank)
    while v:
        mono, c = leading_term(v, order)
        comp, a, b, e = mono
        for g, lead in zip(basis, leads):
            if lead is None:
                continue
            (gcomp, ga, gb, ge), lc = lead
            if gcomp == comp and ge <= e and all(
                    s <= t for s, t in zip(ga + gb, a + b)):
                step = g.mul_monomial(
                    tuple(t - s for s, t in zip(ga, a)),
                    tuple(t - s for s, t in zip(gb, b)), e - ge, 1)
                v = v - step.scale(c / lc)
                break
        else:
            term = FreeVec(v.n, v.ring, v.rank, {mono: c})
            rem = rem + term
            v = v - term
    return rem
