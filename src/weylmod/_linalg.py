"""
Sparse rows, exact echelon form, and the one kernel of polynomials over Z.

Rows, elements and vectors are sparse dicts from hashable keys to
nonzero scalars.  A row of the kernel is of Python ints, or of ZPolys,
kept primitive with a positive lead; a row over a field is cleared onto
one of those first (clear).  One cancellation step, cancel, serves every
reduction against such a lead: the echelon form here, the Groebner
kernel and the Sturm sequences of the de Rham code.  It scales the row
being reduced instead of dividing, so rows stay free of fractions, and
the rank and the set of pivot keys of an echelon form are those of the
span over the field.

A polynomial over Z is a sequence of ints, lowest degree first, with no
zero on top.  _sub, _mul, _prem and _primitive are its one kernel: the
de Rham b-function runs them on lists over Z[theta], and ZPoly, an
immutable tuple of ints built on them, is the scalar of Q(z): a rational
function is a pair of them (scalars.RatFunc), reduced by _gcd.  clear
puts rational functions, as Fractions are put over Z, over one
denominator in Z[z]; a content, and so cancel, primitive and
lowest_terms on ZPolys, is a gcd over Z[z] (_gcd): the gcd of the
integer contents times the last term of the primitive remainder
sequence (Collins, JACM 14, 1967).
"""

from math import gcd, lcm


def add_terms(out, items):
    """Add (key, coeff) pairs into the sparse dict out, dropping zeros."""
    for k, c in items:
        s = out.get(k)
        s = c if s is None else s + c
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


# ---------------------------------------------------------------------------
# polynomials over Z


def _sub(m, f, c, g, k=0):
    """m f - c t^k g, a list, for ints m, c and polynomials f, g."""
    h = list(f) if m == 1 else [m * s for s in f]
    if len(h) < len(g) + k:
        h += [0] * (len(g) + k - len(h))
    for i, t in enumerate(g, k):
        h[i] -= c * t
    while h and not h[-1]:
        h.pop()
    return h


def _mul(f, g):
    """f g, a list."""
    if not f or not g:
        return []
    h = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                h[j] += a * b
    return h


def _prem(row, base, col=0):
    """m row - q base, of lower degree than base at col, for an int m > 0.

    row and base are lists of polynomials.  Each pass cancels the top
    coefficient of row[col] against base[col]'s times a power of the
    variable by cancel, which scales row instead of dividing; the theta
    system, the Sturm sequences and the gcd over Z[z] share it.
    """
    p = base[col]
    while len(row[col]) >= len(p):
        m, c = cancel(row[col][-1], p[-1])
        k = len(row[col]) - len(p)
        row = [_sub(m, f, c, g, k) for f, g in zip(row, base)]
    return row


def _primitive(row):
    """A nonzero row of polynomials over its integer content, and the
    content, of the sign of the top coefficient of its first nonzero
    polynomial."""
    col = next(j for j, f in enumerate(row) if f)
    flat, d = primitive({(j, i): c for j, f in enumerate(row)
                         for i, c in enumerate(f)}, (col, len(row[col]) - 1))
    return [[flat[j, i] for i in range(len(f))] for j, f in enumerate(row)], d


def _gcd(f, g):
    """The gcd over Z of nonzero polynomials f and g, as a ZPoly with a
    positive top coefficient.

    Its content is the gcd of theirs; its primitive part is the last
    nonzero member of the primitive remainder sequence of f and g.
    """
    c = gcd(*f, *g)
    if len(f) > 1 and len(g) > 1:
        (f,), _d = _primitive([f])
        (g,), _d = _primitive([g])
        if len(f) < len(g):
            f, g = g, f
        while len(g) > 1:
            (r,) = _prem([f], [g])
            if not r:
                return ZPoly([c * x for x in g])
            f, g = g, _primitive([r])[0][0]
    return ZPoly((c,))


def _z(v):
    """v as a ZPoly: an int is a constant."""
    return v if type(v) is ZPoly else ZPoly((v,) if v else ())


class ZPoly(tuple):
    """A polynomial over Z: its ints, lowest degree first, no zero on top.

    Immutable, with + - * by ZPolys and ints on either side, exact //,
    == and bool.  A constant equals its int and hashes like it, so that a
    scale of 1 reads as 1.
    """

    __slots__ = ()

    def __add__(self, other):
        return ZPoly(_sub(1, self, -1, _z(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return ZPoly(_sub(1, self, 1, _z(other)))

    def __neg__(self):
        return ZPoly([-c for c in self])

    def __mul__(self, other):
        if type(other) is int:
            return ZPoly([c * other for c in self] if other else ())
        return ZPoly(_mul(self, other))

    __rmul__ = __mul__

    def __floordiv__(self, other):
        """self / other, which other divides."""
        if type(other) is int or len(other) == 1:
            d = other if type(other) is int else other[0]
            return self if d == 1 else ZPoly([c // d for c in self])
        f, n, top = list(self), len(other) - 1, other[-1]
        q = [0] * (len(f) - n)
        for i in range(len(q) - 1, -1, -1):
            c = q[i] = f[i + n] // top
            for j, t in enumerate(other, i):
                f[j] -= c * t
        return ZPoly(q)

    def __eq__(self, other):
        if type(other) is int:
            return len(self) == 1 and self[0] == other if other else not self
        return tuple.__eq__(self, other)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(self[0] if self else 0) if len(self) < 2 else \
            tuple.__hash__(self)

    def as_integer_ratio(self):
        return self, 1


def _content(values, like):
    """The gcd over Z[z] of nonzero ints and ZPolys, signed as like's top."""
    values = iter(values)
    g = _z(next(values))
    for v in values:
        g = _gcd(g, _z(v))
    return g if (g[-1] > 0) == (like[-1] > 0) else -g


def lcm_of(dens):
    """The lcm of nonzero ints, or over Z[z] of ZPolys and ints, > 0.

    A ZPoly lcm has a positive top coefficient.
    """
    dens = set(dens)
    if ZPoly not in map(type, dens):
        return lcm(*dens)
    out = ZPoly((1,))
    for d in dens:
        d = _z(d)
        out = out * d // _gcd(out, d)
    return out if out[-1] > 0 else -out


def clear(values):
    """(nums, den) with values[i] == nums[i] / den, den the lcm of the
    denominators of the values.

    Ints and Fractions give ints; a rational function gives ZPolys, read
    off the integer ratio (p, q) it gives over Z[z].
    """
    pairs = [c.as_integer_ratio() for c in values]
    den = lcm_of(q for _p, q in pairs)
    if type(den) is int:
        return [p if q == den else p * (den // q) for p, q in pairs], den
    return [_z(p) * (den // q) for p, q in pairs], den


# ---------------------------------------------------------------------------
# rows


def cancel(c, lead):
    """(m, q) with m * c == q * lead, so m * row - q * pivot cancels c.

    Two ints give the least such integers, m > 0, and two ZPolys the least
    such polynomials, m with a positive top.
    """
    if type(lead) is ZPoly:
        g = _gcd(c, lead)
        if lead[-1] < 0:
            g = -g
    else:
        g = gcd(c, lead) if lead > 0 else -gcd(c, lead)
    return lead // g, c // g


def primitive(row, key):
    """row divided by its content, signed to give a positive lead at key.

    The content of ints is their gcd, and of ZPolys their gcd over Z[z],
    signed as the top coefficient of the lead.  Also returns the divisor.
    """
    lc = row[key]
    if type(lc) is ZPoly:
        d = _content(row.values(), lc)
    else:
        d = gcd(*row.values()) if lc > 0 else -gcd(*row.values())
    return (row if d == 1 else {k: c // d for k, c in row.items()}), d


def lowest_terms(row, den):
    """(row / g, den / g) for g the gcd of den and the coefficients of row.

    g has the sign of den (of its top coefficient, for a ZPoly), so this
    is row / den over its least positive denominator; den 1 is already
    least.  Two such pairs are equal exactly when the rows they stand for
    are.
    """
    if den == 1:
        return row, den
    if type(den) is int:
        g = gcd(den, *row.values()) if den > 0 else -gcd(den, *row.values())
    else:
        g = _content([den, *row.values()], den)
    return (row, den) if g == 1 else (
        {k: c // g for k, c in row.items()}, den // g)


class Echelon:
    """Online row echelon form: feed rows, read off rank and membership."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}

    def reduce(self, row):
        """row reduced until its leading key is no pivot's, or zero.

        Only the leading key is eliminated, by one cancel step against the
        pivot there, so the result is zero exactly when row lies in the
        span, and otherwise leads with a key new to the span.  It is a
        nonzero multiple of a combination of row and the pivots; the set
        of its keys does not depend on that multiple.
        """
        row = {k: v for k, v in row.items() if v}
        pivots = self.pivots
        while row:
            key = max(row)
            piv = pivots.get(key)
            if piv is None:
                return row
            m, c = cancel(row[key], piv[key])
            if m != 1:
                for k in row:
                    row[k] *= m
            c = -c
            add_terms(row, ((k, v * c) for k, v in piv.items()))
        return row

    def add(self, row):
        """Insert a row; True if it enlarged the span."""
        res = self.reduce(row)
        if not res:
            return False
        key = max(res)
        self.pivots[key] = primitive(res, key)[0]
        return True

    def rank(self):
        return len(self.pivots)

    def contains(self, row):
        return not self.reduce(row)


def rank_of_rows(rows):
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech.rank()


def dense_rank(matrix):
    """Rank of a dense list-of-lists matrix with exact field entries.

    Each row is cleared of its denominators first, so that the echelon
    form runs on ints, or on ZPolys for rational functions.
    """
    rows = []
    for r in matrix:
        cols = [j for j, v in enumerate(r) if v]
        rows.append(dict(zip(cols, clear([r[j] for j in cols])[0])))
    return rank_of_rows(rows)
