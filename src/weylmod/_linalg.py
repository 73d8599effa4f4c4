"""
Sparse rows: the shared term accumulator and exact echelon form.

Rows, elements and vectors are sparse dicts from hashable keys to
nonzero scalars.  A row of Python ints is kept primitive with a positive
lead, any other row (Fraction, rational function, or ints mixed with
those) monic.  One cancellation step, cancel, serves every reduction
against such a lead: the echelon form here, the Groebner kernel and the
Sturm sequences of the de Rham code.  On integers it scales the row
being reduced instead of dividing, so integer rows stay free of
fractions.  Either way the rank and the set of pivot keys of an echelon
form are those of the span over the field.
"""

from fractions import Fraction
from math import gcd


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


def cancel(c, lead):
    """(m, q) with m * c == q * lead, so m * row - q * pivot cancels c.

    Two ints give the least such integers, m > 0; an int lead with any
    other c gives (1, c / lead).  Any other lead is that of a monic row:
    (lead, c), with no division, so a rational function stays one.
    """
    if type(lead) is not int:
        return lead, c
    if type(c) is not int:
        return 1, c / lead
    g = gcd(c, lead) if lead > 0 else -gcd(c, lead)
    return lead // g, c // g


def primitive(row, key):
    """row divided by its content, signed to give a positive lead at key.

    A row with any coefficient other than an int is divided by its lead
    instead, which makes it monic.  Also returns the divisor.
    """
    lc = row[key]
    if all(type(c) is int for c in row.values()):
        d = gcd(*row.values()) if lc > 0 else -gcd(*row.values())
        return (row if d == 1 else {k: c // d for k, c in row.items()}), d
    if type(lc) is int:
        lc = Fraction(lc)   # int / int would give a float
    return (row if lc == 1 else {k: c / lc for k, c in row.items()}), lc


def lowest_terms(row, den):
    """(row / g, den / g) for g the gcd of den and the ints of row.

    The least denominator of the row over den; den 1 is already least.
    """
    if den == 1:
        return row, den
    g = gcd(den, *row.values())
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
    """Rank of a dense list-of-lists matrix with exact field entries."""
    rows = []
    for r in matrix:
        rows.append({j: v for j, v in enumerate(r) if v})
    return rank_of_rows(rows)
