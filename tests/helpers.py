"""Shared test apparatus: random generators, independent brute-force oracles,
and the planted-witness construction."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iter_product
from math import lcm
from typing import Optional

from mortality2x2 import Instance, Mat2
from mortality2x2.linalg import CharPoly, Vec2, char_poly, outer
from mortality2x2.pairs import r_next
from mortality2x2.spectral import power_similar_identity

# Representatives of the three spectral regimes (positive, zero and negative
# discriminant), all invertible with no power similar to the identity.
REGIME_POSITIVE = Mat2.from_rows([[2, 0], [1, 1]])  # x^2 - 3x + 2
REGIME_ZERO = Mat2.from_rows([[1, 1], [0, 1]])  # x^2 - 2x + 1, defective
REGIME_NEGATIVE = Mat2.from_rows([[1, -2], [1, 0]])  # x^2 - x + 2
REGIMES = {
    "positive": REGIME_POSITIVE,
    "zero": REGIME_ZERO,
    "negative": REGIME_NEGATIVE,
}


def rand_rat(rng: random.Random, max_num: int, max_den: int) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def rand_mat(rng: random.Random, max_num: int, max_den: int) -> Mat2:
    return Mat2(*(rand_rat(rng, max_num, max_den) for _ in range(4)))


def rand_invertible_int(rng: random.Random, lo: int, hi: int) -> Mat2:
    while True:
        m = Mat2(*(rng.randint(lo, hi) for _ in range(4)))
        if m.det() != 0:
            return m


def rand_rank_one(rng: random.Random, max_num: int, max_den: int) -> Mat2:
    while True:
        u = Vec2(rand_rat(rng, max_num, max_den), rand_rat(rng, max_num, max_den))
        v = Vec2(rand_rat(rng, max_num, max_den), rand_rat(rng, max_num, max_den))
        m = outer(u, v)
        if not m.is_zero():
            return m


def rand_nonperiodic_invertible(rng: random.Random, lo: int = -5, hi: int = 5) -> Mat2:
    while True:
        m = rand_invertible_int(rng, lo, hi)
        if power_similar_identity(m) is None:
            return m


def doubled_cosine_track(p: Fraction, n_max: int) -> list[Fraction]:
    """t_n = 2 T_n(p) for n = 0..n_max by direct recurrence."""
    track = [Fraction(2), 2 * p]
    for _ in range(n_max - 1):
        track.append(2 * p * track[-1] - track[-2])
    return track[: n_max + 1]


def brute_force_cheb(p: Fraction, q: Fraction, n_max: int) -> set[int]:
    """Independent enumeration of { n <= n_max : T_n(p) == q }."""
    tq = 2 * q
    return {n for n, t in enumerate(doubled_cosine_track(p, n_max)) if t == tq}


def answer_set(answer, n_max: int) -> set[int]:
    """Expand a ChebyshevAnswer to its solutions up to n_max."""
    from mortality2x2.spectral import Empty, Finite, Periodic

    if isinstance(answer, Empty):
        return set()
    if isinstance(answer, Finite):
        return {n for n in answer.solutions if n <= n_max}
    if not isinstance(answer, Periodic):
        raise AssertionError(f"not a ChebyshevAnswer: {answer!r}")
    residues = set(answer.residues)
    return {n for n in range(n_max + 1) if n % answer.period in residues}


def r_value(cp: CharPoly, k: int) -> Fraction:
    """r_k by direct iteration; requires every step to be defined."""
    r = Fraction(0)
    for _ in range(k - 1):
        nxt = r_next(cp.b, cp.c, r)
        if nxt is None:
            raise AssertionError("iteration undefined; matrix has a periodic power")
        r = nxt
    return r


_PLANT_DIRECTIONS = (
    Vec2(1, 0),
    Vec2(0, 1),
    Vec2(1, 1),
    Vec2(1, -1),
    Vec2(2, 1),
    Vec2(1, 2),
)


def plant_pair(v: Mat2, k_star: int) -> Mat2:
    """Singular n with decide_pair(n, v, n) == Witness(k_star).

    Pick u, then choose the row factor orthogonal to (V + r_{k*} I) u; the
    scalar track then vanishes exactly at k*, uniquely (the r iteration is
    injective for non-periodic V), and s0 != 0 rules out the k = 0 witness.
    """
    cp = char_poly(v)
    x = r_value(cp, k_star)
    shifted = v + Mat2.identity().scale(x)
    for u in _PLANT_DIRECTIONS:
        w = shifted.mul_vec(u)
        if w.is_zero():
            continue
        row = w.perp()
        if row.dot(u) != 0:
            return outer(u, row)
    raise AssertionError(f"no planting direction worked for exponent {k_star}")


def exhaustive_search(instance: Instance, max_len: int) -> Optional[tuple[int, ...]]:
    """Undeduplicated reference search: first zero word in (length, lex) order."""
    mats = instance.matrices
    indices = range(len(mats))
    for length in range(1, max_len + 1):
        for word in iter_product(indices, repeat=length):
            m = mats[word[0]]
            for idx in word[1:]:
                m = m * mats[idx]
            if m.is_zero():
                return word
    return None


def scan_pair_zeros(n_left: Mat2, v: Mat2, n_right: Mat2, k_max: int) -> set[int]:
    """Exact scan of { k <= k_max : n_left V^k n_right == 0 }.

    Each factor is scaled by the lcm of its denominators to a row-major
    integer 4-tuple; nonzero constants preserve zero products exactly.
    """

    def scaled(m: Mat2) -> tuple[int, ...]:
        entries = m.entries()
        den = lcm(*(e.denominator for e in entries))
        return tuple(e.numerator * (den // e.denominator) for e in entries)

    def mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return (
            a[0] * b[0] + a[1] * b[2],
            a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2],
            a[2] * b[1] + a[3] * b[3],
        )

    left_power, inner, right = scaled(n_left), scaled(v), scaled(n_right)
    zeros = set()
    for k in range(k_max + 1):
        if not any(mul(left_power, right)):
            zeros.add(k)
        left_power = mul(left_power, inner)
    return zeros
