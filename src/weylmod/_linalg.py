"""
Sparse rows: the shared term accumulator and exact echelon form.

Rows, elements and vectors are sparse dicts from hashable keys to
nonzero scalars.  A row of Python ints is reduced free of fractions:
cancelling a key scales the row instead of dividing, and a new pivot is
made primitive with a positive lead.  Any other row (Fraction, rational
function, or ints mixed with those) is reduced as over a field, against
monic pivots.  Either way the rank and the set of pivot keys are those
of the span over the field.
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


class Echelon:
    """Online row echelon form: feed rows, read off rank and membership."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}

    def reduce(self, row):
        """A nonzero multiple of the residual of row modulo the span so far.

        Every pivoted key is eliminated, not just the leading one, so the
        residual is a nonzero multiple of a linear function of the input
        row: against a pivot with integer lead l, an integer coefficient c
        is cancelled by first scaling the row by l / gcd(c, l).  Whether
        it is zero, and its keys, do not depend on that multiple.
        """
        row = {k: v for k, v in row.items() if v}
        pivots = self.pivots
        while row:
            hit = [k for k in row if k in pivots]
            if not hit:
                return row
            key = max(hit)
            piv = pivots[key]
            c, lead = row[key], piv[key]
            if type(lead) is int and lead != 1:
                if type(c) is int:
                    g = gcd(c, lead)
                    m, c = lead // g, c // g
                    if m != 1:
                        for k in row:
                            row[k] *= m
                else:
                    c = c / lead
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
