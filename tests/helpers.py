"""Shared fixtures: random element generators and the avatar battery."""

from fractions import Fraction

from weylmod import (H1, QQ, QZ, ZP, IntegralPresentation, QPoly, RatFunc,
                     WeylAlgebra)


def rand_fraction(rng, lo=-9, hi=9, den=6):
    num = rng.randint(lo, hi)
    return Fraction(num, rng.randint(1, den))


def rand_nonzero_fraction(rng):
    c = rand_fraction(rng)
    return c if c else Fraction(1)


def rand_qpoly(rng, deg=2):
    coeffs = [rand_fraction(rng) for _ in range(rng.randint(1, deg + 1))]
    if not any(coeffs):
        coeffs[0] = Fraction(1)
    return QPoly(tuple(coeffs))


def rand_ratfunc(rng, deg=2):
    num = rand_qpoly(rng, deg)
    den = rand_qpoly(rng, deg)
    return RatFunc(num, den)


def rand_scalar(rng, ring):
    if ring == QZ:
        return rand_ratfunc(rng)
    return rand_nonzero_fraction(rng)


def rand_element(rng, W, deg=4, terms=4):
    """Random nonzero element of W with Bernstein degree <= deg.

    Over ZP and H1 each term also gets a random power of z (or h).
    """
    n = W.n
    u = W.zero()
    for _ in range(rng.randint(1, terms)):
        alpha = [0] * n
        beta = [0] * n
        budget = rng.randint(0, deg)
        for _ in range(budget):
            slot = rng.randrange(2 * n)
            if slot < n:
                alpha[slot] += 1
            else:
                beta[slot - n] += 1
        e = rng.randint(0, 2) if W.ring in (ZP, H1) else 0
        u = u + W.monomial(tuple(alpha), tuple(beta), e,
                           coeff=rand_scalar(rng, W.ring))
    if u.is_zero():
        u = W.scalar(rand_scalar(rng, W.ring))
    return u


# the n=1 avatar battery: name, single relation, chi of the reduction
def battery_avatars():
    A = WeylAlgebra(1, QZ)
    x, d, z = A.x(1), A.d(1), A.z()
    c = A.scalar(RatFunc(QPoly.const(Fraction(2, 3))))
    half = A.scalar(RatFunc(QPoly.const(Fraction(1, 2))))
    inv1z = A.scalar(RatFunc(QPoly.const(Fraction(1)), QPoly((1, 1))))
    rows = [
        ("polynomial", d - z * c, 1),
        ("delta", x - z * c, -1),
        ("exponential", d - inv1z, 0),
        ("kummer-half", x * d - half, 0),
        ("theta-z", x * d - z, 0),
    ]
    return [(name, IntegralPresentation.from_qz_matrix(1, [[w]]), chi)
            for name, w, chi in rows]


def free_avatar(rank=1):
    return IntegralPresentation.from_qz_matrix(1, [], rank=rank)


# --- random perfect complexes with composition zero by construction

def _zero_grid(r, c):
    return [[QPoly.const(Fraction(0)) for _ in range(c)] for _ in range(r)]


def _rand_zpoly(rng, deg=3):
    coeffs = [Fraction(rng.randint(-2, 2)) for _ in
              range(rng.randint(1, deg + 1))]
    if not any(coeffs):
        coeffs[-1] = Fraction(1)
    return QPoly(tuple(coeffs))


def _direct_sum(ranks_a, mats_a, ranks_b, mats_b):
    length = len(ranks_a) - 1
    ranks = [ra + rb for ra, rb in zip(ranks_a, ranks_b)]
    mats = []
    for k in range(length):
        m = _zero_grid(ranks[k], ranks[k + 1])
        for i in range(ranks_a[k]):
            for j in range(ranks_a[k + 1]):
                m[i][j] = mats_a[k][i][j]
        for i in range(ranks_b[k]):
            for j in range(ranks_b[k + 1]):
                m[ranks_a[k] + i][ranks_a[k + 1] + j] = mats_b[k][i][j]
        mats.append(m)
    return ranks, mats


def random_perfect_complex(rng, max_length=3):
    """Direct sums of Koszul and two-term blocks, then elementary
    integral row operations; composition stays zero throughout."""
    length = rng.randint(1, max_length)
    ranks = [0] * (length + 1)
    mats = [_zero_grid(0, 0) for _ in range(length)]
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(3)
        if kind == 0 and length >= 2:
            # Koszul block on two scalars at a random offset
            off = rng.randint(0, length - 2)
            f, g = _rand_zpoly(rng), _rand_zpoly(rng)
            branks = [0] * (length + 1)
            bmats = [_zero_grid(0, 0) for _ in range(length)]
            branks[off], branks[off + 1], branks[off + 2] = 1, 2, 1
            for k in range(length):
                bmats[k] = _zero_grid(branks[k], branks[k + 1])
            bmats[off] = [[f, g]]
            bmats[off + 1] = [[g * Fraction(-1)], [f]]
            ranks, mats = _direct_sum(ranks, mats, branks, bmats)
        elif kind == 1:
            # two-term multiplication block
            off = rng.randint(0, length - 1)
            branks = [0] * (length + 1)
            branks[off], branks[off + 1] = 1, 1
            bmats = [_zero_grid(branks[k], branks[k + 1])
                     for k in range(length)]
            bmats[off] = [[_rand_zpoly(rng)]]
            ranks, mats = _direct_sum(ranks, mats, branks, bmats)
        else:
            # a lone free summand
            off = rng.randint(0, length)
            branks = [0] * (length + 1)
            branks[off] = 1
            bmats = [_zero_grid(branks[k], branks[k + 1])
                     for k in range(length)]
            ranks, mats = _direct_sum(ranks, mats, branks, bmats)
    # elementary basis changes: add f*(row a) to row b at a stage
    for _ in range(rng.randint(0, 6)):
        j = rng.randint(0, length)
        if ranks[j] < 2:
            continue
        a, b = rng.sample(range(ranks[j]), 2)
        f = _rand_zpoly(rng, deg=1)
        # target side of map j-1: column op  col_a += f * col_b ... the
        # inverse transform acts on the source side of map j
        if j > 0:
            for row in mats[j - 1]:
                row[b] = row[b] + f * row[a]
        if j < length:
            for cidx in range(ranks[j + 1]):
                mats[j][a][cidx] = mats[j][a][cidx] - \
                    f * mats[j][b][cidx]
    from weylmod import PerfectComplexOverDVR
    return PerfectComplexOverDVR(ranks, mats)
