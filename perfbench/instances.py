"""Seeded benchmark instances with ground truth that does not use the engine.

Everything here is plain integer arithmetic on 2x2 matrices written as
row-major tuples ``(a, b, c, d)`` and vectors ``(x, y)``; nothing imports
``mortality2x2``.  Each generator returns the instance rows together with the
verdict the engine must reach:

* planted mortal instances ``[N, V]`` with ``N = u w^T``, ``w = perp(V^k u)``:
  for a non-periodic ``V`` the scalar ``w^T V^j u`` vanishes at most once, so
  the witness word is exactly ``(0, 1 x k, 0)``;
* near misses ``w = perp(V^k u + V^(k+1) u)`` for ``V`` with two distinct
  positive eigenvalues: the direction of ``V^k u + V^(k+1) u`` lies strictly
  between the orbit points ``V^k u`` and ``V^(k+1) u``, so no ``N V^j N`` is
  zero and the instance is immortal;
* wide immortal instances whose endpoints all agree modulo a small prime
  ``q``: if ``v0^T V^j u0`` is never 0 mod ``q`` over one orbit of ``u0``,
  then no ``N_i V^j N_l`` is zero over the integers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

IntMat = tuple[int, int, int, int]
IntVec = tuple[int, int]

# Exponents of planted witnesses are log-uniform over this range.
K_MIN = 10
K_MAX = 5000

# Spectral kinds of V, each with the characteristic polynomials, as
# (trace, det), that its instances cycle through.  Solver cost depends mostly
# on that polynomial and on k, so fixing the list keeps the pool's cost mix
# the same for every seed; the seed varies V within its similarity class,
# the endpoints and the exponents.  "sq"/"nsq" say whether the discriminant
# is a square; near_* polynomials have two distinct positive roots.
DEEP_POLYS = {
    "pos_same_sq": ((3, 2), (-5, 6)),
    "pos_same_nsq": ((3, 1), (-4, 2)),
    "pos_opp_sq": ((1, -2), (-1, -6)),
    "pos_opp_nsq": ((1, -1), (2, -1)),
    "neg": ((1, 2), (-3, 5)),
    "zero": ((2, 1), (-4, 4)),
    "near_sq": ((3, 2), (4, 3)),
    "near_nsq": ((3, 1), (4, 2)),
}
WIDE_POLYS = {
    "periodic2": ((0, -2), (0, 3)),
    "periodic3": ((1, 1), (-1, 1)),
    "periodic4": ((2, 2), (-2, 2)),
    "periodic6": ((3, 3), (-3, 3)),
    "pos_same": ((3, 1), (3, 2)),
    "pos_opp": ((1, -1), (1, -2)),
    "neg": ((1, 2), (-3, 5)),
    "zero": ((2, 1), (-4, 4)),
}
CERT_PRIMES = (3, 5, 7, 11, 13)


def mat_mul(m: IntMat, n: IntMat) -> IntMat:
    return (
        m[0] * n[0] + m[1] * n[2],
        m[0] * n[1] + m[1] * n[3],
        m[2] * n[0] + m[3] * n[2],
        m[2] * n[1] + m[3] * n[3],
    )


def mat_vec(m: IntMat, u: IntVec) -> IntVec:
    return (m[0] * u[0] + m[1] * u[1], m[2] * u[0] + m[3] * u[1])


def dot(v: IntVec, u: IntVec) -> int:
    return v[0] * u[0] + v[1] * u[1]


def perp(u: IntVec) -> IntVec:
    return (-u[1], u[0])


def primitive(u: IntVec) -> IntVec:
    g = math.gcd(u[0], u[1])
    return (u[0] // g, u[1] // g)


def outer(u: IntVec, v: IntVec) -> IntMat:
    return (u[0] * v[0], u[0] * v[1], u[1] * v[0], u[1] * v[1])


def rows(m: IntMat) -> list[list[int]]:
    return [[m[0], m[1]], [m[2], m[3]]]


def periodic_order(m: IntMat) -> Optional[int]:
    """Minimal j >= 1 with m^j scalar, by scanning powers (int or Fraction entries).

    For a 2x2 rational matrix that order, when it exists, is 1, 2, 3, 4 or
    6, so scanning to 12 is exhaustive.
    """
    p = m
    for j in range(1, 13):
        if p[1] == 0 and p[2] == 0 and p[0] == p[3]:
            return j
        p = mat_mul(p, m)
    return None


def regime(m) -> str:
    """Regime label of an invertible V: periodic, disc_pos, disc_zero or disc_neg.

    Works on int or Fraction entries.
    """
    if periodic_order(m) is not None:
        return "periodic"
    t = m[0] + m[3]
    disc = t * t - 4 * (m[0] * m[3] - m[1] * m[2])
    return "disc_pos" if disc > 0 else "disc_neg" if disc < 0 else "disc_zero"


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _fits(m: IntMat, kind: str) -> bool:
    t = m[0] + m[3]
    det = m[0] * m[3] - m[1] * m[2]
    if det == 0:
        return False
    if kind.startswith("periodic"):
        return periodic_order(m) == int(kind[len("periodic"):])
    if periodic_order(m) is not None:
        return False
    disc = t * t - 4 * det
    if kind == "zero":
        return disc == 0
    if kind == "neg":
        return disc < 0
    if disc <= 0:
        return False
    if kind.startswith("pos_same"):
        ok = det > 0
    elif kind.startswith("pos_opp"):
        ok = det < 0
    else:  # near_*: both eigenvalues positive
        ok = det > 0 and t > 0
    if kind.endswith("_sq"):
        ok = ok and _is_square(disc)
    elif kind.endswith("_nsq"):
        ok = ok and not _is_square(disc)
    return ok


def draw_v(rng: random.Random, kind: str, trace: int, det: int) -> IntMat:
    """A random V similar to the companion matrix of x^2 - trace x + det.

    For kind "zero" the companion matrix is not diagonalisable, so V is never
    scalar.  Raises when the polynomial does not have the kind's spectrum.
    """
    a, b = rng.randint(-1, 1), rng.randint(-1, 1)
    p = mat_mul((1, a, 0, 1), (1, 0, b, 1))  # unimodular
    p_inv = (p[3], -p[1], -p[2], p[0])
    v = mat_mul(mat_mul(p, (0, -det, 1, trace)), p_inv)
    if not _fits(v, kind):
        raise ValueError(f"{kind}: polynomial ({trace}, {det}) has the wrong spectrum")
    return v


def _draw_u(rng: random.Random, v: IntMat) -> IntVec:
    """A primitive vector that is not an eigenvector of v."""
    while True:
        u = (rng.randint(-3, 3), rng.randint(-3, 3))
        if u != (0, 0) and dot(perp(u), mat_vec(v, u)) != 0:
            return primitive(u)


def stratified_k(rng: random.Random, stratum: int, strata: int) -> int:
    """An exponent log-uniform within the middle half of stratum `stratum`
    of ``strata`` equal log-width strata of [K_MIN, K_MAX]."""
    span = math.log(K_MAX) - math.log(K_MIN)
    x = math.log(K_MIN) + (stratum + 0.25 + 0.5 * rng.random()) / strata * span
    return min(K_MAX, max(K_MIN, round(math.exp(x))))


@dataclass(frozen=True)
class DeepCase:
    """One rank-1 member N (index 0) and an invertible V (index 1)."""

    kind: str
    k: int
    v: IntMat
    n: IntMat
    mortal: bool  # if so the witness word is (0, 1 x k, 0)

    def matrices(self) -> list:
        return [rows(self.n), rows(self.v)]

    def expected(self) -> tuple:
        """(exit code, verdict, witness) that `decide --json` must report."""
        if self.mortal:
            return (0, "mortal", [0] + [1] * self.k + [0])
        return (1, "immortal", None)


def deep_case(rng: random.Random, kind: str, poly: tuple[int, int], k: int) -> DeepCase:
    v = draw_v(rng, kind, *poly)
    u = _draw_u(rng, v)
    x = u
    for _ in range(k):
        x = mat_vec(v, x)
    if kind.startswith("near"):
        y = mat_vec(v, x)
        x = (x[0] + y[0], x[1] + y[1])
    w = primitive(perp(x))
    if dot(w, u) == 0:
        raise ValueError("planted endpoint is degenerate")
    return DeepCase(kind, k, v, outer(u, w), mortal=not kind.startswith("near"))


def deep_pool(seed: int, strata: int) -> list[DeepCase]:
    """len(DEEP_POLYS) * strata cases, every kind once per k-stratum, shuffled."""
    rng = random.Random(seed)
    cases = [
        deep_case(rng, kind, polys[s % len(polys)], stratified_k(rng, s, strata))
        for s in range(strata)
        for kind, polys in DEEP_POLYS.items()
    ]
    rng.shuffle(cases)
    return cases


def mod_certificate(v: IntMat, q: int, u0: IntVec, w0: IntVec) -> bool:
    """True when w0^T V^j u0 != 0 (mod q) for every j >= 0."""
    vq = tuple(e % q for e in v)
    x = (u0[0] % q, u0[1] % q)
    start = x
    while True:
        if dot(w0, x) % q == 0:
            return False
        y = mat_vec(vq, x)
        x = (y[0] % q, y[1] % q)
        if x == start:
            return True


@dataclass(frozen=True)
class WideCase:
    """`singulars` rank-1 members and one invertible V, certified immortal."""

    kind: str
    v: IntMat
    v_index: int
    ns: tuple[IntMat, ...]
    q: int

    def matrices(self) -> list:
        mats = [rows(n) for n in self.ns]
        mats.insert(self.v_index, rows(self.v))
        return mats

    def expected(self) -> tuple:
        return (1, "immortal", None)


def _nonzero_mod(rng: random.Random, q: int) -> IntVec:
    while True:
        x = (rng.randrange(q), rng.randrange(q))
        if x != (0, 0):
            return x


def wide_case(rng: random.Random, kind: str, poly: tuple[int, int], singulars: int) -> WideCase:
    """Endpoints u_i = u0 + q r_i and w_i = w0 + q s_i for a certificate (q, u0, w0)."""
    v = draw_v(rng, kind, *poly)
    for q in CERT_PRIMES:
        if poly[1] % q == 0:
            continue
        for _ in range(32):
            u0, w0 = _nonzero_mod(rng, q), _nonzero_mod(rng, q)
            if mod_certificate(v, q, u0, w0):
                ns = tuple(
                    outer(
                        (u0[0] + q * rng.randint(-2, 2), u0[1] + q * rng.randint(-2, 2)),
                        (w0[0] + q * rng.randint(-2, 2), w0[1] + q * rng.randint(-2, 2)),
                    )
                    for _ in range(singulars)
                )
                return WideCase(kind, v, rng.randint(0, singulars), ns, q)
    raise ValueError(f"{kind}: no certificate modulo {CERT_PRIMES} for polynomial {poly}")


def wide_pool(seed: int, singulars: int, per_kind: int) -> list[WideCase]:
    rng = random.Random(seed)
    cases = [
        wide_case(rng, kind, polys[i % len(polys)], singulars)
        for i in range(per_kind)
        for kind, polys in WIDE_POLYS.items()
    ]
    rng.shuffle(cases)
    return cases


def _canon(m: IntMat) -> IntMat:
    g = math.gcd(math.gcd(m[0], m[1]), math.gcd(m[2], m[3]))
    if next(e for e in m if e != 0) < 0:
        g = -g
    return (m[0] // g, m[1] // g, m[2] // g, m[3] // g)


def zero_product_within(mats: list[IntMat], max_len: int) -> bool:
    """True when some product of at most max_len members is the zero matrix.

    Breadth-first over products, one state per projective class: a product
    is zero exactly when the product of the class representatives is.
    """
    zero = (0, 0, 0, 0)
    if zero in mats:
        return True
    frontier = {_canon(m) for m in mats}
    seen = set(frontier)
    for _ in range(max_len - 1):
        nxt = set()
        for state in frontier:
            for m in mats:
                p = mat_mul(state, m)
                if p == zero:
                    return True
                c = _canon(p)
                if c not in seen:
                    seen.add(c)
                    nxt.add(c)
        frontier = nxt
    return False
