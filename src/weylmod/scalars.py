"""
Exact scalar arithmetic: rationals, polynomials in z over the rationals,
and rational functions in z.

Rational functions model the fraction field of the local ring at z = 0.
An element is integral exactly when its reduced denominator does not
vanish at 0; the residue map evaluates at z = 0.

RatFunc, the scalar of QZ, is one normal form: the pair (p, q) of
polynomials over Z (_linalg.ZPoly) with value p / q, coprime over Z[z]
and with a positive top coefficient on q.  Its arithmetic is that of
ZPolys, reduced by the one gcd over Z[z] (_linalg._gcd), and the
Groebner kernel and the echelon form read the pair as it is
(as_integer_ratio).  QPoly, a polynomial over Q, is the public form: the
num and den views of a RatFunc, the b-function of a report, and the
reference of the tests.
"""

import math
from fractions import Fraction

from ._linalg import ZPoly, _gcd, _z, clear
from .errors import DivisionByZero, InternalInvariant, NonIntegral

INF = math.inf

_F0 = Fraction(0)


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError("expected int or Fraction, got %r" % (c,))


class QPoly:
    """Univariate polynomial over Q, coefficients stored ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    @staticmethod
    def const(c):
        return QPoly((_as_fraction(c),))

    @staticmethod
    def gen():
        return QPoly((0, 1))

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1

    def lead(self):
        if not self.coeffs:
            return _F0
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("QPoly", self.coeffs))

    def __neg__(self):
        return QPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return QPoly()
            return QPoly(tuple(x * c for x in self.coeffs))
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly()
        out = [_F0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return QPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        dlead = other.lead()
        ddeg = other.degree()
        quo = [_F0] * max(len(rem) - ddeg, 0)
        for i in range(len(rem) - 1, ddeg - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f = c / dlead
            quo[i - ddeg] = f
            for j, oc in enumerate(other.coeffs):
                rem[i - ddeg + j] -= f * oc
        return QPoly(quo), QPoly(rem)

    def __mod__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return divmod(self, other)[0]

    def monic(self):
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return QPoly(tuple(c / lead for c in self.coeffs))

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def lcm(self, other):
        if self.is_zero() or other.is_zero():
            return QPoly()
        g = self.gcd(other)
        return ((self * other) // g).monic()

    def z_order(self):
        """Order of vanishing at 0; INF for the zero polynomial."""
        if not self.coeffs:
            return INF
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        raise InternalInvariant("unnormalized QPoly")

    def eval0(self):
        if not self.coeffs:
            return _F0
        return self.coeffs[0]

    def __call__(self, point):
        acc = _F0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def to_str(self, var="z"):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                mag = abs(c)
                v = var if i == 1 else "%s^%d" % (var, i)
                body = v if mag == 1 else "%s*%s" % (mag, v)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "QPoly(%s)" % self.to_str()


_ONE = ZPoly((1,))


def _pair(v):
    """(p, q) in lowest terms with v == p / q, for an int, a Fraction, a
    ZPoly or a QPoly v."""
    if isinstance(v, (int, Fraction)):
        return _z(v.numerator), _z(v.denominator)
    if isinstance(v, ZPoly):
        return v, _ONE
    if isinstance(v, QPoly):
        nums, den = clear(v.coeffs)
        return ZPoly(nums), _z(den)
    raise TypeError("expected int, Fraction, QPoly or ZPoly, got %r" % (v,))


def _ratio(p, q):
    """The RatFunc p / q of ZPolys: both over their gcd, signed as the top
    of q.  No gcd is taken when q is 1."""
    if not q:
        raise DivisionByZero("division by zero rational function")
    if not p:
        q = _ONE
    elif q != 1:
        g = _gcd(p, q)
        g = g if q[-1] > 0 else -g
        if g != 1:
            p, q = p // g, q // g
    out = object.__new__(RatFunc)
    object.__setattr__(out, "p", p)
    object.__setattr__(out, "q", q)
    return out


def _binary(op):
    """The operator giving the RatFunc of op(p, q, a, b) for self = p / q
    and other = a / b: a RatFunc, an int or a Fraction, else NotImplemented."""
    def method(self, other):
        if isinstance(other, RatFunc):
            return _ratio(*op(self.p, self.q, other.p, other.q))
        if isinstance(other, (int, Fraction)):
            return _ratio(*op(self.p, self.q, *_pair(other)))
        return NotImplemented
    return method


def _sum(p, q, a, b):
    """p / q + a / b as a pair, over q alone when b is q."""
    return (p + a, q) if q == b else (p * b + a * q, q * b)


def _order(f):
    """Order of vanishing at 0 of a nonzero ZPoly."""
    return next(i for i, c in enumerate(f) if c)


class RatFunc:
    """Rational function in z over Q: p / q for ZPolys p and q, coprime
    over Z[z], with a positive top coefficient on q; that pair is unique.
    num and den are its views over Q, with den monic."""

    __slots__ = ("p", "q")

    def __init__(self, num, den=None):
        p, q = _pair(num)
        if den is not None:
            a, b = _pair(den)
            p, q = _ratio(p * b, q * a).as_integer_ratio()
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def z():
        return _ratio(ZPoly((0, 1)), _ONE)

    @property
    def num(self):
        return QPoly([Fraction(c, self.q[-1]) for c in self.p])

    @property
    def den(self):
        return QPoly([Fraction(c, self.q[-1]) for c in self.q])

    def as_integer_ratio(self):
        """(p, q), the ZPolys with self == p / q."""
        return self.p, self.q

    def is_zero(self):
        return not self.p

    def __bool__(self):
        return bool(self.p)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # a constant: no RatFunc is built to compare with it
            return self.q == other.denominator and self.p == other.numerator
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self):
        return hash(("RatFunc", self.p, self.q))

    def __neg__(self):
        return _ratio(-self.p, self.q)

    __add__ = __radd__ = _binary(_sum)
    __sub__ = _binary(lambda p, q, a, b: _sum(p, q, -a, b))
    __rsub__ = _binary(lambda p, q, a, b: _sum(-p, q, a, b))
    __mul__ = __rmul__ = _binary(lambda p, q, a, b: (p * a, q * b))
    __truediv__ = _binary(lambda p, q, a, b: (p * b, q * a))
    __rtruediv__ = _binary(lambda p, q, a, b: (a * q, b * p))

    def inv(self):
        return _ratio(self.q, self.p)

    def valuation(self):
        if self.is_zero():
            return INF
        return _order(self.p) - _order(self.q)

    def is_integral(self):
        """Lies in the local ring at z = 0."""
        return self.q[0] != 0

    def residue0(self):
        if self.is_zero():
            return _F0
        if not self.q[0]:
            raise NonIntegral("negative valuation, no residue at z = 0")
        return Fraction(self.p[0], self.q[0])

    def to_str(self):
        ns = self.num.to_str()
        if len(self.q) == 1:
            return ns
        if len(self.p) - self.p.count(0) > 1 or ns.startswith("-"):
            ns = "(%s)" % ns
        return "%s/(%s)" % (ns, self.den.to_str())

    def __repr__(self):
        return "RatFunc(%s)" % self.to_str()
