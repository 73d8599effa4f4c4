"""The shared echelon form: integer rows against textbook elimination.

Integer rows are reduced free of fractions; they must span the space
that elimination over Q spans, so rank and pivot keys agree with it.
Rows over a field reach the echelon form cleared (dense_rank).
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from weylmod import QPoly, RatFunc
from weylmod._linalg import (Echelon, ZPoly, _gcd, cancel, dense_rank,
                             primitive, rank_of_rows)

from helpers import rand_ratfunc
from oracles import field_rank

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
    ints = Echelon()
    for i, row in enumerate(rows):
        grew = _field_pivots(rows[:i + 1]) != _field_pivots(rows[:i])
        assert ints.add(row) == grew
    pivots = _field_pivots(rows)
    assert ints.rank() == rank_of_rows(rows) == len(pivots)
    assert set(ints.pivots) == pivots
    for key, piv in ints.pivots.items():
        assert all(type(v) is int for v in piv.values())
        assert piv[key] > 0 and gcd(*piv.values()) == 1
    for probe in _probes(rng, rows):
        assert ints.contains(probe) == (_field_pivots(rows + [probe]) == pivots)
        # the residual leads with a key that is no pivot's
        res = ints.reduce(probe)
        assert not res or max(res) not in ints.pivots


@pytest.mark.parametrize("seed", range(20))
def test_mixed_int_and_fraction_rows(seed):
    rng = random.Random(seed)
    rows = _rows(rng)
    # ints left as ints, the rest Fractions (some with denominators);
    # dense_rank clears each row before the echelon form sees it
    mixed = [{k: v if rng.random() < 0.5 else Fraction(v, rng.randint(1, 4))
              for k, v in row.items()} for row in rows]

    def dense(rows):
        return [[row.get(k, 0) for k in KEYS] for row in rows]

    rank = len(_field_pivots(mixed))
    assert dense_rank(dense(mixed)) == rank
    for probe in _probes(rng, rows):
        inside = _field_pivots(mixed + [probe]) == _field_pivots(mixed)
        assert (dense_rank(dense(mixed + [probe])) == rank) == inside


def test_cancel_int_pairs():
    for c in (6, -6, 4, -4, 1, -1, 9, 35, -35, 2**70 * 3):
        for lead in (1, -1, 4, -4, 6, 15, -15, 2**64):
            m, q = cancel(c, lead)
            assert type(m) is int and type(q) is int
            assert m * c == q * lead
            # the least: no common factor, and a scale m > 0
            assert m > 0 and gcd(m, q) == 1, (c, lead)


def test_primitive_normalizes_each_kind_of_row():
    assert primitive({2: -6, 1: 4, 0: 10}, 2) == ({2: 3, 1: -2, 0: -5}, -2)
    assert primitive({1: 3, 0: -1}, 1) == ({1: 3, 0: -1}, 1)
    row, d = primitive({1: ZPoly((2, -4)), 0: ZPoly((6,))}, 1)
    assert (row, d) == ({1: ZPoly((-1, 2)), 0: ZPoly((-3,))}, -2)


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


# Polynomials over Z, checked against QPoly, which divides over Q and
# shares no code with ZPoly.

def _rand_int_qpoly(rng, deg=2):
    """A nonzero QPoly with integer coefficients."""
    coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(1, deg + 1))]
    return QPoly(coeffs if any(coeffs) else [rng.choice((-3, 2, 5))])


def _zpoly(q):
    """The ZPoly of a QPoly with integer coefficients."""
    return ZPoly(int(c) for c in q.coeffs)


def _zpoly_pair(rng):
    """Two random polynomials over Z with a random common factor."""
    common = _rand_int_qpoly(rng, rng.randint(0, 2))
    return (_zpoly(common * _rand_int_qpoly(rng)),
            _zpoly(common * _rand_int_qpoly(rng)))


def _unit_up_to(f, g):
    """f and g are nonzero QPolys that agree up to a rational factor."""
    return f.monic() == g.monic()


@pytest.mark.parametrize("seed", range(40))
def test_zpoly_gcd_and_cancel_against_qpoly(seed):
    rng = random.Random("zpoly/%d" % seed)
    f, g = _zpoly_pair(rng)
    h = _gcd(f, g)
    assert _unit_up_to(QPoly(h), QPoly(f).gcd(QPoly(g)))
    assert h[-1] > 0
    assert gcd(*h) == gcd(*f, *g)
    m, q = cancel(f, g)
    assert QPoly(m) * QPoly(f) == QPoly(q) * QPoly(g)
    # the least such pair: coprime over Q[z] and over Z, m's top positive
    assert QPoly(m).gcd(QPoly(q)) == QPoly((1,))
    assert gcd(*m, *q) == 1 and m[-1] > 0


@pytest.mark.parametrize("seed", range(40))
def test_zpoly_primitive_against_qpoly(seed):
    rng = random.Random("zprim/%d" % seed)
    common = _rand_int_qpoly(rng, rng.randint(0, 2)) * rng.randint(1, 6)
    row = {k: _zpoly(common * _rand_int_qpoly(rng))
           for k in range(rng.randint(1, 4))}
    key = rng.choice(sorted(row))
    prim, d = primitive(row, key)
    for k, c in row.items():
        assert QPoly(prim[k]) * QPoly(d) == QPoly(c)
    # content 1: no integer and no polynomial divides every coefficient
    assert gcd(*(x for c in prim.values() for x in c)) == 1
    content = QPoly((0,))
    for c in prim.values():
        content = content.gcd(QPoly(c))
    assert content == QPoly((1,))
    assert prim[key][-1] > 0


@pytest.mark.parametrize("seed", range(12))
def test_dense_rank_against_field_elimination(seed):
    rng = random.Random("zrank/%d" % seed)
    cols, rank = rng.randint(1, 5), rng.randint(0, 4)
    zero = RatFunc(0)
    basis = [[rand_ratfunc(rng) if rng.random() < 0.7 else zero
              for _ in range(cols)] for _ in range(rank)]
    matrix = [list(row) for row in basis]
    for _ in range(rng.randint(0, 3)):
        cs = [rand_ratfunc(rng) for _ in basis]
        matrix.append([sum((c * row[j] for c, row in zip(cs, basis)), zero)
                       for j in range(cols)])
    rng.shuffle(matrix)
    assert dense_rank(matrix) == field_rank(matrix)
    # the fiber at z = 0 of the integral entries
    special = [[v.residue0() for v in row] for row in matrix
               if all(v.is_integral() for v in row)]
    assert dense_rank(special) == field_rank(special)
