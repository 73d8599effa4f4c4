"""Exact scalar arithmetic: Q[z] polynomials and rational functions."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylmod import DivisionByZero, QPoly, RatFunc, scalars

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=8)
polys = st.lists(fractions, min_size=1, max_size=5).map(
    lambda cs: QPoly(tuple(cs)))
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def P(*coeffs):
    return QPoly(tuple(Fraction(c) for c in coeffs))


def test_qpoly_basics():
    p = P(1, 2, 1)
    assert p.degree() == 2
    assert p(Fraction(1)) == 4
    assert p.eval0() == 1
    assert (p - p).is_zero()
    assert P(0, 0).is_zero()
    assert P(0, 0, 3).degree() == 2
    assert p.to_str("z") == "z^2 + 2*z + 1"


def test_qpoly_divmod():
    p = P(-1, 0, 1)
    q, r = divmod(p, P(-1, 1))
    assert r.is_zero() and q == P(1, 1)
    assert p // P(-1, 1) == P(1, 1)
    assert (p % P(2)).is_zero()
    with pytest.raises(DivisionByZero):
        divmod(p, P(0))


def test_qpoly_gcd_lcm():
    a = P(-1, 0, 1)
    b = P(1, 1)
    g = a.gcd(b)
    assert g == b.monic()
    l = a.lcm(b)
    assert (l % a).is_zero() and (l % b).is_zero()
    assert l.degree() == 2


def test_qpoly_z_order():
    assert P(0, 0, 1, 2).z_order() == 2
    assert P(5).z_order() == 0


def test_ratfunc_basics():
    r = RatFunc(P(1, 1), P(2))
    assert r.to_str() == "1/2*z + 1/2"
    assert (r * r.inv() - RatFunc(P(1))).num.is_zero()
    assert r.residue0() == Fraction(1, 2)
    assert r.is_integral()
    pole = RatFunc(P(1), P(0, 1))
    assert not pole.is_integral()
    assert pole.valuation() == -1
    with pytest.raises(DivisionByZero):
        RatFunc(P(1), P(0))


def test_ratfunc_polynomial_takes_no_gcd(monkeypatch):
    calls = []
    real = scalars._gcd
    monkeypatch.setattr(scalars, "_gcd",
                        lambda a, b: calls.append((a, b)) or real(a, b))
    r = RatFunc(P(-2, 1)) * RatFunc.z() + RatFunc(3)
    assert calls == []
    assert r.num == P(3, -2, 1) and r.den == P(1)
    assert RatFunc(P(2, 2), P(2)) == RatFunc(P(1, 1))
    assert RatFunc(P(0, 1), P(0, 2)) == RatFunc(Fraction(1, 2))
    assert len(calls) == 2


def test_ratfunc_compares_with_constants(monkeypatch):
    one, z = RatFunc(1), RatFunc.z()
    built = []
    real = RatFunc.__init__
    monkeypatch.setattr(RatFunc, "__init__",
                        lambda self, *a: built.append(a) or real(self, *a))
    assert RatFunc(0) == 0 and 0 == RatFunc(0)
    assert RatFunc(3) == 3 and RatFunc(3) != 2
    assert RatFunc(Fraction(1, 2)) == Fraction(1, 2)
    assert z != 1 and z != 0
    assert 1 / (1 + z) != 1
    pole = RatFunc(P(1), P(0, 1))
    del built[:]
    # the monic-lead test of a QZ reduction step builds no RatFunc
    assert not one != 1 and one != 0 and pole != 1
    assert built == []


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_qpoly_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a


@given(polys, nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_qpoly_division_identity(a, b):
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree() < b.degree()


@given(nonzero_polys, nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_gcd_divides_both(a, b):
    g = a.gcd(b)
    assert (a % g).is_zero() and (b % g).is_zero()


@given(nonzero_polys, nonzero_polys, nonzero_polys)
@settings(max_examples=40, deadline=None)
def test_ratfunc_field_axioms(a, b, c):
    r = RatFunc(a, b)
    s = RatFunc(b, c)
    t = RatFunc(c, a)
    assert r * (s + t) == r * s + r * t
    assert (r / s) * s == r
    # one normal form: the pair is coprime (QPoly.gcd is the reference),
    # the top of q is positive, and equal values have equal pairs
    for v in (r, s, t, r * s + r * t, r / s - t, 1 - r, r.inv()):
        p, q = v.as_integer_ratio()
        assert q[-1] > 0
        assert QPoly(p).gcd(QPoly(q)) == QPoly((1,)) or not p
        assert gcd(*p, *q) == 1
        assert RatFunc(*v.as_integer_ratio()) == v
    same = (r * s + r * t, r * (s + t))
    assert same[0].as_integer_ratio() == same[1].as_integer_ratio()
    assert hash(same[0]) == hash(same[1])
    assert RatFunc(a * c, b * c).as_integer_ratio() == r.as_integer_ratio()


@given(nonzero_polys, nonzero_polys)
@settings(max_examples=40, deadline=None)
def test_valuation_multiplicative(a, b):
    r = RatFunc(a, b)
    assert r.valuation() == a.z_order() - b.z_order()
    assert (r * r.inv()).valuation() == 0
