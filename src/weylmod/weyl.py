"""
Normal-ordered arithmetic in the Weyl algebra W_n over exact scalar rings.

Ring tags:
  QQ  coefficients in Q
  QZ  coefficients in Q(z), z a central parameter living in the scalars
  ZP  coefficients in Q[z], z carried as a central monomial exponent
  H1  homogenized W_1 with [d, x] = h^2, h carried in the z-exponent slot

Elements are stored normal-ordered: a term is (alpha, beta, e) -> coeff,
meaning coeff * z^e * x^alpha * d^beta (h^e for H1).  All noncommutativity
lives in the product, the one loop _packed.Layout.mul_into, which applies
the closed-form reordering

    d^beta x^gamma = sum_nu C(beta,nu) C(gamma,nu) nu! x^(gamma-nu) d^(beta-nu)

termwise instead of iterating single commutators.  It runs on packed
integer keys; products here encode their operands and decode the result
through _packed.product.  transpose and the Fourier pair map every term
to a product left * right of packed monomials and run them through the
loop in one pass, one product per left factor (_reordered); the Ext
path transposes its packed stage rows through the same pass.

WeylElement, XPoly, SymbolPolynomial and groebner.FreeVec share one
immutable sparse-term value type, _Terms.
"""

from fractions import Fraction
from operator import add

from ._linalg import add_terms
from ._packed import envelope, layout, product, widening
from .errors import (DivisionByZero, MixedAmbient, UnsupportedAmbient,
                     ZeroElement)
from .scalars import QPoly, RatFunc

QQ = "QQ"
QZ = "QZ"
ZP = "ZP"
H1 = "H1"

RING_TAGS = (QQ, QZ, ZP, H1)


def _coerce(ring, c):
    if ring == QZ:
        if isinstance(c, RatFunc):
            return c
        if isinstance(c, (int, Fraction)):
            return RatFunc(c)
    else:
        if isinstance(c, Fraction):
            return c
        if isinstance(c, int):
            return Fraction(c)
        if isinstance(c, RatFunc):
            raise MixedAmbient("the rational function %s is no scalar of "
                               "the %s ring" % (c.to_str(), ring))
    raise TypeError("bad scalar %r for ring %s" % (c, ring))


def _one(ring):
    return RatFunc(1) if ring == QZ else Fraction(1)


def _zero_index(n):
    return (0,) * n


def _add_idx(a, b):
    return tuple(map(add, a, b))


class _Terms:
    """An immutable sparse map from monomials to nonzero scalars.

    The one value type behind WeylElement, XPoly, SymbolPolynomial and
    groebner.FreeVec: a value is its ambient (n and the ring tag, and the
    rank of a FreeVec) and its terms.  Subclasses say what a key means.
    """

    __slots__ = ("n", "ring", "terms")

    def __init__(self, n, ring, terms):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", self._nonzero(ring, terms))

    @staticmethod
    def _nonzero(ring, terms):
        return {k: c for k, c in terms.items() if c}

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _ambient(self):
        return (self.n, self.ring)

    def _like(self, terms):
        """A value of the same type and ambient with the given terms."""
        return type(self)(self.n, self.ring, terms)

    def _promote(self, other):
        """other as a value of this type, where a subclass allows scalars."""
        return other

    def _check(self, other):
        if self.n != other.n or self.ring != other.ring:
            raise MixedAmbient("operands live in different algebras: "
                               "W_%d/%s vs W_%d/%s"
                               % (self.n, self.ring, other.n, other.ring))

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        try:
            other = self._promote(other)
        except MixedAmbient:
            return False
        if type(other) is not type(self):
            return NotImplemented
        return (self._ambient() == other._ambient()
                and self.terms == other.terms)

    def __hash__(self):
        return hash(self._ambient() + (frozenset(self.terms.items()),))

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        other = self._promote(other)
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return self._like(add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _coerce(self.ring, c)
        if not c:
            return self._like({})
        return self._like({k: v * c for k, v in self.terms.items()})

    def support_degree(self, key):
        """|alpha| + |beta| of a key ending in (alpha, beta, e); + e on H1."""
        a, b, e = key[-3:]
        return sum(a) + sum(b) + (e if self.ring == H1 else 0)


class WeylElement(_Terms):
    """Element of W_n, sparse over normal-ordered monomials (alpha, beta, e)."""

    __slots__ = ()

    @staticmethod
    def _nonzero(ring, terms):
        return {k: _coerce(ring, c) if isinstance(c, int) else c
                for k, c in terms.items() if c}

    def _promote(self, other):
        # a RatFunc is a scalar over QZ; _coerce refuses it on other rings
        if isinstance(other, (int, Fraction, RatFunc)):
            return WeylAlgebra(self.n, self.ring).scalar(other)
        return other

    __radd__ = _Terms.__add__

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            return self.scale(other)
        if not isinstance(other, WeylElement):
            return NotImplemented
        self._check(other)
        return normal_product(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, c):
        c = _coerce(self.ring, c)
        if not c:
            raise DivisionByZero("division of a Weyl element by zero")
        return self.scale(_one(self.ring) / c)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a Weyl element")
        result = WeylAlgebra(self.n, self.ring).one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def sorted_terms(self):
        """Deterministic descending term list for printing and hashing-free walks."""
        return sorted(self.terms.items(),
                      key=lambda kv: (self.support_degree(kv[0]),) + kv[0],
                      reverse=True)

    def __repr__(self):
        return to_str(self)


def normal_product(u, v):
    """Product in normal order, by the one product loop of _packed."""
    u._check(v)
    return WeylElement(u.n, u.ring,
                       product(u.terms, v.terms, u.n, u.ring == H1))


class WeylAlgebra:
    """Factory for elements of W_n over a tagged scalar ring."""

    def __init__(self, n, ring=QQ):
        if n < 1:
            raise UnsupportedAmbient("need n >= 1")
        if ring not in RING_TAGS:
            raise ValueError("unknown ring tag %r" % (ring,))
        if ring == H1 and n != 1:
            raise UnsupportedAmbient("homogenized algebra is n = 1 only")
        self.n = n
        self.ring = ring

    def zero(self):
        return WeylElement(self.n, self.ring, {})

    def scalar(self, c):
        if self.ring == ZP and isinstance(c, QPoly):
            z0 = _zero_index(self.n)
            return WeylElement(self.n, self.ring,
                               {(z0, z0, i): ci
                                for i, ci in enumerate(c.coeffs) if ci})
        c = _coerce(self.ring, c)
        if not c:
            return self.zero()
        z0 = _zero_index(self.n)
        return WeylElement(self.n, self.ring, {(z0, z0, 0): c})

    def one(self):
        return self.scalar(1)

    def x(self, i):
        """Generator x_i, 1-based."""
        if not 1 <= i <= self.n:
            raise UnsupportedAmbient("x index %d out of range" % i)
        z0 = _zero_index(self.n)
        a = tuple(1 if j == i - 1 else 0 for j in range(self.n))
        return WeylElement(self.n, self.ring, {(a, z0, 0): _one(self.ring)})

    def d(self, i):
        """Generator d_i (the i-th derivation), 1-based."""
        if not 1 <= i <= self.n:
            raise UnsupportedAmbient("d index %d out of range" % i)
        z0 = _zero_index(self.n)
        b = tuple(1 if j == i - 1 else 0 for j in range(self.n))
        return WeylElement(self.n, self.ring, {(z0, b, 0): _one(self.ring)})

    def z(self):
        if self.ring == ZP:
            z0 = _zero_index(self.n)
            return WeylElement(self.n, self.ring, {(z0, z0, 1): Fraction(1)})
        if self.ring == QZ:
            z0 = _zero_index(self.n)
            return WeylElement(self.n, self.ring, {(z0, z0, 0): RatFunc.z()})
        raise UnsupportedAmbient("z only exists over QZ or ZP")

    def h(self):
        if self.ring != H1:
            raise UnsupportedAmbient("h only exists in the homogenized algebra")
        z0 = _zero_index(self.n)
        return WeylElement(self.n, self.ring, {(z0, z0, 1): Fraction(1)})

    def monomial(self, alpha, beta, e=0, coeff=1):
        return WeylElement(self.n, self.ring,
                           {(tuple(alpha), tuple(beta), e):
                            _coerce(self.ring, coeff)})


def bernstein_degree(u):
    """Max over terms of |alpha| + |beta|; z has weight 0, h weight 1."""
    if not u.terms:
        raise ZeroElement("Bernstein degree of 0 is undefined")
    return max(u.support_degree(k) for k in u.terms)


def _coeff_str(c, need_parens):
    if isinstance(c, RatFunc):
        s = c.to_str()
        if need_parens and (" " in s or "/" in s) and not s.startswith("("):
            s = "(%s)" % s
        return s
    return str(c)


def _monomial(key, z="z", d="d"):
    """z^e x^a d^b of a key (a, b, e) under the given names of z and d."""
    a, b, e = key
    factors = [z + ("^%d" % e if e > 1 else "")] if e else []
    for name, powers in (("x", a), (d, b)):
        factors += ["%s%d" % (name, i + 1) + ("^%d" % p if p > 1 else "")
                    for i, p in enumerate(powers) if p]
    return "*".join(factors)


def _times(cs, mono):
    """A printed coefficient times a printed monomial, "" being 1."""
    if not mono:
        return cs
    return mono if cs == "1" else cs + "*" + mono


class SymbolPolynomial(_Terms):
    """Commutative polynomial in x_1..x_n, xi_1..xi_n (and z over ZP)."""

    __slots__ = ()

    def __mul__(self, other):
        items = (((_add_idx(a1, a2), _add_idx(b1, b2), e1 + e2), c1 * c2)
                 for (a1, b1, e1), c1 in self.terms.items()
                 for (a2, b2, e2), c2 in other.terms.items())
        return SymbolPolynomial(self.n, self.ring, add_terms({}, items))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            _times(_coeff_str(self.terms[key], False), _monomial(key, d="xi"))
            for key in sorted(self.terms, reverse=True))


def principal_symbol(u):
    """Top Bernstein-degree part with d_i renamed to the commuting xi_i."""
    top = bernstein_degree(u)
    terms = {k: c for k, c in u.terms.items() if u.support_degree(k) == top}
    return SymbolPolynomial(u.n, u.ring, terms)


def _reordered(lay, image, terms, outs):
    """outs[j] += c image(m) in component head, over terms (j, head, m, c).

    image(lay, m) gives (left, right, odd) for a monomial m of comp 0: the
    image is the product left right, negated when odd.  Terms are grouped
    by their row j and left factor, and each group goes through the
    product loop once.  Returns outs.
    """
    groups = {}
    for j, head, m, c in terms:
        left, right, odd = image(lay, m)
        groups.setdefault((j, left), {})[lay.with_comp(right, head)] = \
            -c if odd else c
    for (j, left), row in groups.items():
        lay.mul_into(outs[j], left, 1, row, envelope(row))
    return outs


def _transposed(lay, m):
    """z^e x^a d^b to (-1)^|b| z^e d^b x^a."""
    x, d, e = lay.parts(m)
    return d + e, x, lay.degree(d) & 1


def _fourier(lay, m):
    """z^e x^a d^b to (-1)^|b| z^e d^a x^b."""
    x, d, e = lay.parts(m)
    return lay.swapped(x) + e, lay.swapped(d), lay.degree(d) & 1


def _fourier_inverse(lay, m):
    """z^e x^a d^b to (-1)^|a| z^e d^a x^b."""
    x, d, e = lay.parts(m)
    return lay.swapped(x) + e, lay.swapped(d), lay.degree(x) & 1


def _reordered_terms(u, image):
    """u with each term mapped by image, in one packed pass.

    Keys of u end in (a, b, e), and a component in front of them (a
    FreeVec's) is carried over, so a FreeVec is mapped entrywise.
    """
    if not u.terms:
        return u
    comps = len(next(iter(u.terms))) == 4

    def run(lay):
        terms = ((0,) + lay.split(k) + (c,)
                 for k, c in lay.pack(u.terms).items())
        return lay.unpack(_reordered(lay, image, terms, [{}])[0], comps)

    return u._like(widening(run, layout(u.n, u.ring == H1)))


def fourier(u):
    """The automorphism x_i -> d_i, d_i -> -x_i, renormalized; order four."""
    return _reordered_terms(u, _fourier)


def fourier_inverse(u):
    """The inverse automorphism x_i -> -d_i, d_i -> x_i."""
    return _reordered_terms(u, _fourier_inverse)


def transpose(u):
    """The anti-automorphism x -> x, d -> -d; transpose(uv) = transpose(v)transpose(u)."""
    return _reordered_terms(u, _transposed)


class XPoly(_Terms):
    """Commutative polynomial in x_1..x_n, the module Q[x] the algebra acts on."""

    __slots__ = ()

    def __init__(self, n, ring, terms=()):
        _Terms.__init__(self, n, ring, dict(terms))

    @staticmethod
    def monomial(n, ring, alpha, coeff=1):
        return XPoly(n, ring, {tuple(alpha): _coerce(ring, coeff)})

    def diff(self, i):
        """Partial derivative along x_i, 1-based."""
        return XPoly(self.n, self.ring, add_terms({}, (
            (tuple(v - 1 if j == i - 1 else v for j, v in enumerate(a)),
             c * a[i - 1])
            for a, c in self.terms.items() if a[i - 1])))

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(a) for a in self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            _times(_coeff_str(self.terms[a], False), _monomial((a, (), 0)))
            for a in sorted(self.terms, key=lambda t: (sum(t),) + t,
                            reverse=True))


def apply_to_polynomial(u, f):
    """The standard action on Q[x]: x_i multiplies, d_i differentiates."""
    if u.ring not in (QQ, QZ):
        raise UnsupportedAmbient("polynomial action needs field coefficients")
    if u.n != f.n or u.ring != f.ring:
        raise MixedAmbient("element and polynomial ambients differ")
    out = {}
    for (a, b, _e), c in u.terms.items():
        g = f
        for i in range(u.n):
            for _ in range(b[i]):
                g = g.diff(i + 1)
            if g.is_zero():
                break
        if g.is_zero():
            continue
        c = _coerce(u.ring, c)
        add_terms(out, ((_add_idx(k, a), v * c) for k, v in g.terms.items()))
    return XPoly(u.n, u.ring, out)


def to_str(u):
    """Deterministic normal-form string; reparses to the same element."""
    if not u.terms:
        return "0"
    zname = "h" if u.ring == H1 else "z"
    parts = []
    for key, c in u.sorted_terms():
        mono = _monomial(key, z=zname)
        cs = _coeff_str(c, need_parens=bool(mono))
        negative = cs.startswith("-") and not cs.startswith("(-")
        body = _times(cs[1:] if negative else cs, mono)
        if not parts:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)


def convert_ring(u, target):
    """Move an element between coefficient representations when lossless.

    ZP -> QZ folds the z exponent into the scalars; QZ -> ZP expands
    polynomial scalars into z exponents (denominators must be 1);
    QQ -> QZ / QQ -> ZP are inclusions; ZP/QZ -> QQ requires no z at all.
    """
    if u.ring == target:
        return u
    WeylAlgebra(u.n, target)  # raises for a tag W_n cannot carry
    out = {}
    if u.ring == ZP and target == QZ:
        # the terms of one (a, b) give the coefficients of one polynomial
        for (a, b, e), c in u.terms.items():
            out.setdefault((a, b, 0), {})[e] = c
        return WeylElement(u.n, target, {
            k: RatFunc(QPoly([p.get(e, 0) for e in range(max(p) + 1)]))
            for k, p in out.items()})
    for (a, b, e), c in u.terms.items():
        if u.ring == QZ and target == ZP:
            p, q = c.as_integer_ratio()
            if len(q) != 1:
                raise UnsupportedAmbient(
                    "coefficient %s is not polynomial in z" % (c,))
            add_terms(out, (((a, b, e + i), Fraction(ci, q[0]))
                            for i, ci in enumerate(p) if ci))
        elif u.ring == QQ and target == QZ:
            add_terms(out, [((a, b, e), RatFunc(c))])
        elif u.ring == QQ and target == ZP:
            add_terms(out, [((a, b, e), c)])
        elif u.ring == ZP and target == QQ:
            if e:
                raise UnsupportedAmbient("element involves z, not in W_n(Q)")
            add_terms(out, [((a, b, 0), c)])
        elif u.ring == QZ and target == QQ:
            if len(c.p) > 1 or len(c.q) > 1:
                raise UnsupportedAmbient("element involves z, not in W_n(Q)")
            add_terms(out, [((a, b, e), c.residue0())])
        else:
            raise UnsupportedAmbient("no conversion %s -> %s" % (u.ring, target))
    return WeylElement(u.n, target, out)


def reduce_element_mod_z(u):
    """Residue of an integral element: ZP drops z-divisible terms, QZ evaluates."""
    out = {}
    for (a, b, e), c in u.terms.items():
        if u.ring == ZP:
            if e == 0:
                add_terms(out, [((a, b, 0), c)])
        elif u.ring == QZ:
            add_terms(out, [((a, b, 0), c.residue0())])
        elif u.ring == QQ:
            add_terms(out, [((a, b, e), c)])
        else:
            raise UnsupportedAmbient("reduction undefined for %s" % u.ring)
    return WeylElement(u.n, QQ, out)
