"""The shared echelon form: integer rows against the same rows over Q.

Integer rows are reduced free of fractions and Fraction rows against
monic pivots; both must span the same space, so rank, pivot keys and
membership agree, and agree with textbook elimination over Q.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from weylmod import RatFunc
from weylmod._linalg import Echelon, dense_rank, primitive, rank_of_rows

from helpers import rand_ratfunc

KEYS = [(t, j, a) for t in range(4) for j in range(2) for a in range(t + 1)]


def _rand_row(rng, size=4, lo=-6, hi=6):
    return {k: rng.randint(lo, hi) or 1 for k in rng.sample(KEYS, size)}


def _combine(rng, rows):
    """A random integer combination of rows."""
    out = {}
    for row in rows:
        c = rng.randint(-3, 3)
        for k, v in row.items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


def _rows(rng, count=12):
    """Random sparse integer rows, a third of them dependent on earlier ones."""
    rows = []
    for _ in range(count):
        if rows and rng.random() < 0.35:
            rows.append(_combine(rng, rng.sample(rows, min(3, len(rows)))))
        else:
            rows.append(_rand_row(rng, size=rng.randint(1, 6)))
    return rows


def _as_fractions(row):
    return {k: Fraction(v) for k, v in row.items()}


def _field_pivots(rows):
    """Pivot keys of textbook elimination over Q, largest key first."""
    pivots = {}
    for row in rows:
        row = {k: Fraction(v) for k, v in row.items() if v}
        for key in sorted(pivots, reverse=True):
            c = row.get(key)
            if c:
                for k, v in pivots[key].items():
                    row[k] = row.get(k, 0) - c * v
                row = {k: v for k, v in row.items() if v}
        if row:
            key = max(row)
            pivots[key] = {k: v / row[key] for k, v in row.items()}
    return set(pivots)


def _probes(rng, rows):
    """Rows in the span (combinations) and rows that may leave it."""
    out = [_combine(rng, rng.sample(rows, min(4, len(rows))))
           for _ in range(6)]
    out += [_rand_row(rng, size=rng.randint(1, 5)) for _ in range(6)]
    return [p for p in out if p]


@pytest.mark.parametrize("seed", range(40))
def test_integer_rows_match_fraction_rows(seed):
    rng = random.Random(seed)
    rows = _rows(rng)
    ints, fracs = Echelon(), Echelon()
    for row in rows:
        assert ints.add(row) == fracs.add(_as_fractions(row))
    assert ints.rank() == fracs.rank() == rank_of_rows(rows)
    assert set(ints.pivots) == set(fracs.pivots) == _field_pivots(rows)
    for key, piv in ints.pivots.items():
        assert all(type(v) is int for v in piv.values())
        assert piv[key] > 0 and gcd(*piv.values()) == 1
    for key, piv in fracs.pivots.items():
        assert piv[key] == 1
    for probe in _probes(rng, rows):
        want = fracs.contains(_as_fractions(probe))
        assert ints.contains(probe) == want
        assert ints.contains(_as_fractions(probe)) == want
        assert fracs.contains(probe) == want
        # the residual may be scaled, never moved to other keys
        assert set(ints.reduce(probe)) == \
            set(fracs.reduce(_as_fractions(probe)))


@pytest.mark.parametrize("seed", range(20))
def test_mixed_int_and_fraction_rows(seed):
    rng = random.Random(seed)
    rows = _rows(rng)
    # ints left as ints, the rest Fractions (some with denominators); the
    # leads of mixed rows are often ints
    mixed = [{k: v if rng.random() < 0.5 else Fraction(v, rng.randint(1, 4))
              for k, v in row.items()} for row in rows]
    ech, ref = Echelon(), Echelon()
    for row in mixed:
        assert ech.add(row) == ref.add(_as_fractions(row))
    pivots = _field_pivots(mixed)
    assert ech.rank() == ref.rank() == len(pivots)
    assert set(ech.pivots) == set(ref.pivots) == pivots
    for piv in ech.pivots.values():
        assert not any(isinstance(v, float) for v in piv.values())
    for probe in _probes(rng, rows):
        assert ech.contains(probe) == ref.contains(_as_fractions(probe))


def test_primitive_normalizes_each_kind_of_row():
    assert primitive({2: -6, 1: 4, 0: 10}, 2) == ({2: 3, 1: -2, 0: -5}, -2)
    assert primitive({1: 3, 0: -1}, 1) == ({1: 3, 0: -1}, 1)
    row, d = primitive({1: Fraction(3, 2), 0: 1}, 1)
    assert (row, d) == ({1: 1, 0: Fraction(2, 3)}, Fraction(3, 2))
    row, d = primitive({1: 4, 0: Fraction(1, 2)}, 1)
    assert row == {1: 1, 0: Fraction(1, 8)} and d == 4
    assert all(type(v) is Fraction for v in row.values())


@pytest.mark.parametrize("seed", range(6))
def test_ratfunc_rows_through_dense_rank(seed):
    rng = random.Random(seed)
    cols, rank = 5, rng.randint(1, 4)
    zero = RatFunc(0)
    # rank independent rows in echelon shape, then combinations of them
    basis = []
    for i in range(rank):
        basis.append([zero] * i + [rand_ratfunc(rng)] +
                     [rand_ratfunc(rng) if rng.random() < 0.6 else zero
                      for _ in range(cols - i - 1)])
    matrix = list(basis)
    for _ in range(3):
        cs = [rand_ratfunc(rng) for _ in basis]
        matrix.append([sum((c * row[j] for c, row in zip(cs, basis)), zero)
                       for j in range(cols)])
    rng.shuffle(matrix)
    assert dense_rank(matrix) == rank
    # integer entries as RatFunc, Fraction and int give one rank
    ints = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(4)]
    ints.append([a + b for a, b in zip(ints[0], ints[1])])
    assert dense_rank([[RatFunc(v) for v in r] for r in ints]) == \
        dense_rank([[Fraction(v) for v in r] for r in ints]) == \
        dense_rank(ints)
