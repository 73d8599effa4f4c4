"""
Exact scalar arithmetic: rationals, polynomials in z over the rationals,
and rational functions in z.

Rational functions model the fraction field of the local ring at z = 0.
An element is integral exactly when its reduced denominator does not
vanish at 0; the residue map evaluates at z = 0.
"""

import math
from fractions import Fraction

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
        return divmod(self, other)[1]

    def __floordiv__(self, other):
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


_P0 = QPoly()
_P1 = QPoly((1,))


class RatFunc:
    """Rational function in z over Q, kept coprime with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = QPoly.const(num)
        if den is None:
            den = _P1
        elif isinstance(den, (int, Fraction)):
            den = QPoly.const(den)
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero():
            num, den = _P0, _P1
        elif den != _P1:
            g = num.gcd(den)
            if g.degree() > 0:
                num, den = num // g, den // g
            lead = den.lead()
            if lead != 1:
                num = num * (1 / lead)
                den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def z():
        return RatFunc(QPoly.gen())

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # a constant: no RatFunc is built to compare with it
            return (self.den == _P1
                    and self.num.coeffs == ((other,) if other else ()))
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RatFunc", self.num, self.den))

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, RatFunc) else -RatFunc(other))

    def __rsub__(self, other):
        return RatFunc(other) - self

    def __mul__(self, other):
        if not isinstance(other, RatFunc):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = RatFunc(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFunc(other) / self

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return RatFunc(self.den, self.num)

    def valuation(self):
        if self.is_zero():
            return INF
        return self.num.z_order() - self.den.z_order()

    def is_integral(self):
        """Lies in the local ring at z = 0."""
        return self.den.eval0() != 0

    def residue0(self):
        if self.is_zero():
            return _F0
        d0 = self.den.eval0()
        if d0 == 0:
            raise NonIntegral("negative valuation, no residue at z = 0")
        return self.num.eval0() / d0

    def to_str(self):
        ns = self.num.to_str()
        if self.den == _P1:
            return ns
        if len(self.num.coeffs) - self.num.coeffs.count(_F0) > 1 or ns.startswith("-"):
            ns = "(%s)" % ns
        return "%s/(%s)" % (ns, self.den.to_str())

    def __repr__(self):
        return "RatFunc(%s)" % self.to_str()
