"""
Packed-integer monomials and the one Weyl product loop.

A monomial z^e x^a d^b e_comp of a free module over W_n is one Python
int.  From the low bits up it holds 2n + 1 fields, e, a_1..a_n and
b_1..b_n, each `width` bits wide with one guard bit above it, and comp
above them all:

    key = e + sum_i a_i 2^(i s) + sum_i b_i 2^((n + i) s)
            + comp 2^((2n + 1) s),                         s = width + 1

An element of W_n itself is a module element of comp 0.  Every field of
a stored key stays below 2^(width - 1), so no sum of two fields, and no
h^2 shift of the homogenized algebra, carries out of its guard bit.
Within that bound:

  - the product of two commuting terms has key q + t;
  - lead divides mono, in the same comp, exactly when mono - lead sets
    no guard bit, and mono - lead is then the quotient monomial;
  - lcm is a fieldwise max.

Encoding and the product loop check the bound on every key they make
and raise Overflow instead of wrapping.  Every computation on packed keys
runs under `widening`: it starts on the narrowest layout (or on the one
a basis it reuses was built on) and reruns on a layout twice as wide
after an Overflow, so the width comes from the data and nothing wraps.

Order keys are read off the packed int itself (Layout.graded and
Layout.degrees), so an order never decodes a monomial to rank it.

Layouts are shared per (n, homog, width) and carry memos: key encoding
and decoding, and the expansion

    d^b x^a = sum_nu C(b, nu) C(a, nu) nu! x^(a - nu) d^(b - nu)

tabulated once per d-part of the left factor and x-part of the right
term, as packed deltas and integer multipliers with the h^2 shift folded
in.  Memos are cleared when they reach _MEMO_LIMIT entries, so a long
process does not grow without bound.
"""

from functools import reduce
from math import comb, factorial
from operator import or_

from .errors import InternalInvariant

# narrowest field: exponents up to 63 with the bound above
MIN_WIDTH = 7
_MEMO_LIMIT = 1 << 17


class Overflow(InternalInvariant):
    """An exponent would leave the fields of layout; rerun it wider."""

    def __init__(self, lay):
        InternalInvariant.__init__(
            self, "exponent beyond a %d-bit field" % lay.width)
        self.layout = lay


class Memo(dict):
    """A dict that fills a missing key from fn: a hit runs no Python code."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        dict.__init__(self)
        self.fn = fn

    def __missing__(self, key):
        if len(self) >= _MEMO_LIMIT:
            self.clear()
        value = self[key] = self.fn(key)
        return value


def envelope(row):
    """The OR of a row's keys: no field of any key exceeds its field here."""
    return reduce(or_, row, 0)


_LAYOUTS = {}


def layout(n, homog, width=MIN_WIDTH):
    """The shared layout of n variables and the given field width."""
    key = (n, homog, width)
    out = _LAYOUTS.get(key)
    if out is None:
        out = _LAYOUTS[key] = Layout(n, homog, width)
    return out


def product(left, right, n, homog):
    """left * right, for term dicts on tuple keys.

    Keys of left are (a, b, e); keys of right may carry a component in
    front, which the product keeps.
    """
    if not right:
        return {}
    comps = len(next(iter(right))) == 4
    return widening(lambda lay: lay.unpack(
        lay.times(lay.pack(left), lay.pack(right)), comps), layout(n, homog))


def widening(run, lay):
    """run(lay), then again on a layout twice as wide after each Overflow."""
    while True:
        try:
            return run(lay)
        except Overflow as e:
            lay = layout(e.layout.n, e.layout.homog, 2 * e.layout.width)


class Layout:
    """Packed keys of W_n (homog: the homogenized W_1) at one field width.

    enc maps a tuple key (a, b, e) or (comp, a, b, e) to its int, dec an
    int to (comp, a, b, e) and dec3 to (a, b, e).  Each fills the other
    on a miss, since keys decoded on the way out of one computation are
    encoded on the way into the next.
    """

    __slots__ = ("n", "homog", "width", "shifts", "pairsum", "cshift",
                 "guard", "spill", "fields", "xmask", "dmask", "xdmask", "enc",
                 "dec", "dec3", "_tables")

    def __init__(self, n, homog, width):
        self.n = n
        self.homog = homog
        self.width = width
        s = width + 1
        nf = 2 * n + 1
        # bit offsets of the fields e, a_1..a_n, b_1..b_n
        self.shifts = [f * s for f in range(nf)]
        # |a| + |b| of graded(): adjacent x/d fields are added into slots
        # 2s wide, and one product sums the n slots into the top one;
        # fields below 2^(width - 1) keep every slot sum below n 2^width,
        # which fits 2s bits for any n below 2^(width + 2)
        pair = 2 * s
        self.pairsum = (sum(((1 << width) - 1) << (k * pair) for k in range(n)),
                        sum(1 << (k * pair) for k in range(n)),
                        (n - 1) * pair, (1 << pair) - 1)
        self.cshift = nf * s
        self.guard = sum(1 << (f * s + width) for f in range(nf))
        # the guard bit and the top bit of each field: clear in a key
        # whose fields all lie below 2^(width - 1)
        self.spill = self.guard | (self.guard >> 1)
        self.fields = [((1 << width) - 1) << (f * s) for f in range(nf)]
        self.xmask = sum(self.fields[1:n + 1])
        self.dmask = sum(self.fields[n + 1:])
        self.xdmask = self.xmask | self.dmask
        self.enc = Memo(self._encode)
        self.dec = Memo(self._decode)
        self.dec3 = Memo(self._decode3)
        self._tables = Memo(self._expansion)

    def _encode(self, key):
        if len(key) == 4:
            comp, a, b, e = key
        else:
            comp, (a, b, e) = 0, key
        if max(a) >> self.width - 1 or max(b) >> self.width - 1 or \
                e >> self.width - 1:
            raise Overflow(self)
        s, k = self.shifts[1], comp
        for v in reversed(b):
            k = k << s | v
        for v in reversed(a):
            k = k << s | v
        k = k << s | e
        (self.dec if len(key) == 4 else self.dec3)[k] = key
        return k

    def _decode(self, k):
        mask, n = self.fields[0], self.n
        vals = [k >> i & mask for i in self.shifts]
        key = (k >> self.cshift, tuple(vals[1:n + 1]), tuple(vals[n + 1:]),
               vals[0])
        self.enc[key] = k
        return key

    def _decode3(self, k):
        key = self._decode(k)[1:]
        self.enc[key] = k
        return key

    def pack(self, terms):
        enc = self.enc
        return {enc[k]: c for k, c in terms.items()}

    def unpack(self, row, comps=True):
        """row on tuple keys: (comp, a, b, e), or (a, b, e) without comps."""
        dec = self.dec if comps else self.dec3
        return {dec[k]: c for k, c in row.items()}

    def graded(self, m):
        """The Bernstein key of m: |a| + |b|, e, reverse lex, -comp.

        One int holds the first three: above the fields sits |a| + |b|,
        then e, then each x- and d-field complemented, the last d-field
        highest.  Comparing two such ints compares |a| + |b|, then e, then
        the last differing exponent of a + b, the smaller one ranking
        higher.
        """
        s, (even, ones, top, wide) = self.shifts[1], self.pairsum
        xd = m & self.xdmask
        y = xd >> s
        deg = ((y & even) + (y >> s & even)) * ones >> top & wide
        return (deg << self.cshift | (m & self.fields[0]) << self.cshift - s
                | (xd ^ self.xdmask) >> s, -(m >> self.cshift))

    def degrees(self, m):
        """(|a|, |b|, e) of m."""
        mask, n = self.fields[0], self.n
        vals = [m >> i & mask for i in self.shifts]
        return sum(vals[1:n + 1]), sum(vals[n + 1:]), vals[0]

    def moved(self, row, old):
        """row, on the packed keys of layout old, on the keys of this one."""
        enc, dec = self.enc, old.dec
        return {enc[dec[k]]: c for k, c in row.items()}

    def comp(self, m):
        return m >> self.cshift

    def parts(self, m):
        """(x^a, d^b, z^e) of m, each a monomial of comp 0."""
        return m & self.xmask, m & self.dmask, m & self.fields[0]

    def swapped(self, m):
        """m, of comp 0, with the exponents of x and d exchanged."""
        s = self.n * self.shifts[1]
        return ((m & self.xmask) << s | (m & self.dmask) >> s
                | m & self.fields[0])

    def degree(self, m):
        """|a| + |b| + e of m: the sum of its fields."""
        mask = self.fields[0]
        return sum([m >> i & mask for i in self.shifts])

    def with_comp(self, q, comp):
        """The monomial q (of comp 0) moved to component comp."""
        return q + (comp << self.cshift)

    def split(self, m):
        """(comp, the monomial of m in comp 0)."""
        return m >> self.cshift, m & ((1 << self.cshift) - 1)

    def comp_shifted(self, row, by):
        """row with each term moved by components up."""
        step = by << self.cshift
        return {m + step: c for m, c in row.items()}

    def z_shifted(self, row, k):
        """z^k row; k < 0 only for a row whose terms all hold z^-k."""
        if k > 0 and (envelope(row) + k) & self.spill:
            raise Overflow(self)
        return {m + k: c for m, c in row.items()}

    def z_split(self, m):
        """(m without z, the exponent of z in m)."""
        e = m & self.fields[0]
        return m - e, e

    def z_free(self, row):
        """The terms of row without z: its residue mod z."""
        e = self.fields[0]
        return {m: c for m, c in row.items() if not m & e}

    def divides(self, lead, mono):
        diff = mono - lead
        return diff >> self.cshift == 0 and not diff & self.guard

    def divisor(self, index, mono):
        """(k, lead, quotient) for the first lead of index that divides mono.

        index maps a comp to its (k, lead) pairs in basis order; None when
        no lead there divides mono.
        """
        guard = self.guard
        for k, lead in index.get(mono >> self.cshift, ()):
            q = mono - lead
            if not q & guard:
                return k, lead, q
        return None

    def lcm_multipliers(self, mi, mj):
        """(lcm, lcm - mi, lcm - mj) of two leads, None across comps."""
        if mi >> self.cshift != mj >> self.cshift:
            return None
        m = (mi >> self.cshift) << self.cshift
        for f in self.fields:
            m += max(mi & f, mj & f)
        return m, m - mi, m - mj

    def _expansion(self, dx):
        """(delta, multiplier) of each nu != 0 in d^b x^a, nu ascending.

        dx holds the d-part b of the left factor and the x-part a of the
        right term; the term of nu has key q + t + delta.
        """
        mask, n = self.fields[0], self.n
        # nu_i = v moves v from x_i and d_i to h^(2v) in the homogenized
        # algebra, and drops them otherwise
        h = 2 if self.homog else 0
        out = [(0, 1)]
        for xsh, dsh in zip(self.shifts[1:n + 1], self.shifts[n + 1:]):
            b, a = dx >> dsh & mask, dx >> xsh & mask
            if b and a:
                unit = h - (1 << xsh) - (1 << dsh)
                steps = [(0, 1)] + [
                    (v * unit, comb(b, v) * comb(a, v) * factorial(v))
                    for v in range(1, min(b, a) + 1)]
                out = [(d1 + d2, m1 * m2) for d1, m1 in out
                       for d2, m2 in steps]
        return tuple(out[1:])

    def times(self, left, right):
        """left * right, for rows on keys of this layout, left in comp 0.

        The product of two whole rows through the one product loop.
        """
        env = envelope(right)
        out = {}
        for q, c in left.items():
            self.mul_into(out, q, c, right, env)
        return out

    def mul_into(self, out, q, c, row, env):
        """out += c q row, for q a monomial of comp 0; returns out.

        The one Weyl product loop.  env is envelope(row).  Each term t of
        row gives q + t, and when the d-part of q meets the x-part of t
        the tabulated terms of their expansion as well.
        """
        if (q + env) & self.spill:
            raise Overflow(self)
        spill = self.spill
        get = out.get
        qd = q & self.dmask
        if qd:
            table = self._tables
            xmask = self.xmask
        for t, v in row.items():
            k = t + q
            cv = c * v
            s = get(k)
            if s is None:
                out[k] = cv
            else:
                s += cv
                if s:
                    out[k] = s
                else:
                    del out[k]
            if qd:
                for delta, m in table[qd | t & xmask]:
                    kk = k + delta
                    if kk & spill:
                        raise Overflow(self)
                    s = get(kk)
                    if s is None:
                        out[kk] = cv * m
                    else:
                        s += cv * m
                        if s:
                            out[kk] = s
                        else:
                            del out[kk]
        return out
