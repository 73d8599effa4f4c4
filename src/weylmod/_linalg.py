"""
Sparse rows: the shared term accumulator and exact echelon form.

Rows, elements and vectors are sparse dicts from hashable keys to
nonzero scalars; everything here works identically for Fraction and for
rational functions.
"""


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


class Echelon:
    """Online row echelon form: feed rows, read off rank and membership."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}

    def reduce(self, row):
        """Residual of row modulo the span of the rows added so far.

        Every pivoted key is eliminated, not just the leading one, so the
        residual is a linear function of the input row.
        """
        row = {k: v for k, v in row.items() if v}
        while row:
            hit = [k for k in row if k in self.pivots]
            if not hit:
                return row
            key = max(hit)
            piv = self.pivots[key]
            c = -row[key]
            add_terms(row, ((k, v * c) for k, v in piv.items()))
        return row

    def add(self, row):
        """Insert a row; True if it enlarged the span."""
        res = self.reduce(row)
        if not res:
            return False
        key = max(res)
        lead = res[key]
        self.pivots[key] = {k: v / lead for k, v in res.items()}
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
