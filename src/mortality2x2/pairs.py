"""Decide N_left * V^k * N_right = 0 for singular endpoints and invertible V.

The question collapses to a scalar one: with N_left = u_l v_l^T and
N_right = u_r v_r^T, the product is zero exactly when
s_k = v_l^T V^k u_r vanishes, and s obeys the order-2 recurrence
s_{k+2} = -b s_{k+1} - c s_k driven by the characteristic polynomial
x^2 + b x + c of V.

When some power of V is a scalar matrix, zeros of s repeat and one period
is scanned.  Otherwise V^k ~ V + r_k I, where r_1 = 0 and
r_k = c/(b - r_{k-1}) is a Moebius iteration, and s_k = 0 is equivalent to
r_k = x with x = -s_1/s_0.  For d = b^2 - 4c != 0 both readings are one
power equation rho^k = tau over Q(sqrt(d)): rho = l1/l2 is the eigenvalue
ratio and tau = -conj(a)/a for s_k = a l1^k + conj(a) l2^k.  Since
N(rho) = 1, its rational part is the Chebyshev equation T_k(p) = q with
2p = rho + 1/rho = b^2/c - 2, the seed of `CharPoly`, so rho itself is
never built.  The equation has at most one solution off the periodic case,
whatever the sign of d (|p| < 1 for d < 0, |p| > 1 for d > 0).  One index
search names that solution with O(log k) exact doubling steps, O(log^2 k)
when 2p is an integer and the index is bisected, and one confirmation
accepts it: the doubling ladder r_{2j} = (r_j^2 - c)/(2 r_j - b),
r_{j+1} = c/(b - r_j) must give r_k = x.  That is plain rational equality,
so it also holds when d is a perfect square, and it refuses the conjugate
solution rho^k = conj(tau), which is r_{-k} = x.  The zero discriminant uses the closed form
r_k = (k-1) b / (2k), solved linearly.

The work is split by what it depends on.  `analyze_inner` does everything
that depends on V alone -- the invertibility check, the characteristic
polynomial with its seed, and the periodicity test read off the seed -- and
`endpoint` does the rank check and the factorization N = u v^T of one
singular member together with V u.  Per pair only s0 = v_l . u_r,
s1 = v_l . (V u_r), the scalar solve and the witness product remain, so a
caller with many pairs over one V (`decider.decide`) builds the first two
once and passes them in.  `decide_pair` alone builds them when they are
missing, and it alone runs the one exact witness check, whichever branch
named the exponent.

Every returned witness exponent is confirmed by an exact product check;
every refusal is certified by exact arithmetic.  No floating point is used.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Union

from .linalg import (
    CharPoly,
    InternalError,
    Mat2,
    RankError,
    Rat,
    Vec2,
    char_poly,
    factor_rank_one,
    mat_pow,
    rank,
)
from .spectral import PeriodResult, _cheb_index, power_similar_identity


class RefusalReason(str, enum.Enum):
    """Certificate kinds for a refused exponent search."""

    ZERO_NEVER_HIT_MONOTONE = "zero-never-hit-monotone"
    SINGLE_CANDIDATE_FAILED = "single-candidate-failed"
    PERIODIC_SCAN_EXHAUSTED = "periodic-scan-exhausted"
    RATIO_EQUATION_UNSATISFIABLE = "ratio-equation-unsatisfiable"


@dataclass(frozen=True)
class Witness:
    """There is an exponent: N_left * V^k * N_right == 0 exactly."""

    k: int


@dataclass(frozen=True)
class NoExponent:
    """No exponent exists; `reason` names the certifying argument."""

    reason: RefusalReason


PairVerdict = Union[Witness, NoExponent]


@dataclass(frozen=True)
class ScalarRecurrence:
    """s_{k+2} = -b s_{k+1} - c s_k with initial terms s0, s1."""

    b: Rat
    c: Rat
    s0: Rat
    s1: Rat

    def terms(self) -> Iterator[Rat]:
        prev, cur = self.s0, self.s1
        while True:
            yield prev
            prev, cur = cur, -self.b * cur - self.c * prev

    def first_zero(self, lo: int, hi: int) -> Optional[int]:
        """Smallest k in [lo, hi) with s_k == 0, or None."""
        for i, value in enumerate(self.terms()):
            if i >= hi:
                return None
            if i >= lo and value == 0:
                return i
        raise AssertionError("unreachable")


@dataclass(frozen=True)
class RecurrenceState:
    """One step of the Moebius iteration: the value r at index k."""

    k: int
    r: Rat


@dataclass(frozen=True)
class InnerAnalysis:
    """What every pair question over one invertible V shares.

    `char` carries the discriminant and the seed that the power equation
    reads; `periodic` is the minimal m with V^m a scalar matrix, when one
    exists.
    """

    char: CharPoly
    periodic: Optional[PeriodResult]


def analyze_inner(v: Mat2) -> InnerAnalysis:
    """Check that V is invertible and derive its spectral data once."""
    if v.det() == 0:
        raise ValueError("inner matrix must be invertible")
    cp = char_poly(v)
    return InnerAnalysis(cp, power_similar_identity(v, cp))


@dataclass(frozen=True)
class Endpoint:
    """A rank-1 member N = u w^T with V u, ready to close either end of a pair.

    The left end of a pair uses the row factor w, the right end u and V u.
    """

    u: Vec2
    w: Vec2
    vu: Vec2


def endpoint(n: Mat2, v: Mat2) -> Endpoint:
    """Check that N has rank 1 and factor it once for every pair it ends."""
    if rank(n) != 1:
        raise RankError("pair endpoint must have rank 1")
    u, w = factor_rank_one(n)
    return Endpoint(u, w, v.mul_vec(u))


class Prepared(NamedTuple):
    """The hoisted inputs of one pair: V's analysis and both endpoints."""

    inner: InnerAnalysis
    left: Endpoint
    right: Endpoint


def pair_problem(prepared: Prepared) -> ScalarRecurrence:
    """The scalar track s_k = w_l . V^k u_r of one pair, from its hoisted data."""
    inner, left, right = prepared
    cp = inner.char
    return ScalarRecurrence(cp.b, cp.c, left.w.dot(right.u), left.w.dot(right.vu))


def r_next(b: Rat, c: Rat, r_prev: Rat) -> Optional[Rat]:
    """One Moebius step c/(b - r_prev); None when the step is undefined.

    The undefined step can only occur when V^k is itself similar to the
    identity, which callers exclude via `power_similar_identity`.
    """
    if c == 0:
        raise ValueError("c must be nonzero (invertible matrix)")
    if r_prev == b:
        return None
    return c / (b - r_prev)


def iter_recurrence(cp: CharPoly) -> Iterator[RecurrenceState]:
    """Yield (k, r_k) from k = 1 until the iteration becomes undefined."""
    r = Fraction(0)
    k = 1
    while True:
        yield RecurrenceState(k, r)
        nxt = r_next(cp.b, cp.c, r)
        if nxt is None:
            return
        r = nxt
        k += 1


def _r_term(b: Rat, c: Rat, k: int) -> Rat:
    """r_k for k >= 1 in O(log k) exact steps.

    From V^j ~ V + r_j I: (V + r I)^2 = (2r - b) V + (r^2 - c) I gives
    r_{2j} = (r_j^2 - c)/(2 r_j - b), and one Moebius step gives r_{j+1}.
    Requires that no power of V is similar to the identity.
    """
    r = Fraction(0)  # r_1
    for bit in bin(k)[3:]:
        r = (r * r - c) / (2 * r - b)
        if bit == "1":
            r = r_next(b, c, r)
            if r is None:
                raise InternalError("Moebius step undefined: V has a periodic power")
    return r


def solve_r_eq_x(cp: CharPoly, x: Rat) -> Optional[int]:
    """The unique k >= 1 with r_k == x, or None.

    Precondition: no power of the underlying matrix is similar to the
    identity (so the iteration is total and injective).  With s0 = 1 and
    s1 = -x the question is the power equation rho^k = tau; for either sign
    of the discriminant its rational part, the Chebyshev equation
    T_k(p) = q with 2p = `cp.seed`, names the only candidate k, which is
    accepted only if r_k == x exactly.  A fixed point x of the Moebius map,
    (2x - b)^2 = d, is never attained: for d != 0 it is N(a) = 0 and needs a
    square d, for d = 0 it is the limit b/2.  The zero discriminant uses the
    closed form.
    """
    b, c = cp.b, cp.c
    if c == 0:
        raise ValueError("c must be nonzero (invertible matrix)")
    if b == 0:
        raise ValueError("b = 0 makes V^2 scalar, which is periodic; handle via power_similar_identity")
    x = Fraction(x)
    disc = cp.discriminant
    # With s0 = 1, s1 = -x and z = 2x - b, a = (z + sqrt(d))/(2 sqrt(d)) has
    # N(a) = (d - z^2)/(4d), and only the rational part of
    # tau = -conj(a)^2/N(a) is needed: 2 tau.re = 2(z^2 + d)/(z^2 - d),
    # written 2 + 4d/(z^2 - d) so that every gcd has a small operand.
    z_sq = (2 * x - b) ** 2
    if z_sq == disc:
        return None  # a fixed point of the Moebius map, never attained
    if disc == 0:
        # closed form r_k = (k-1) b / (2k); b != 0 since c = b^2/4 != 0
        k = b / (b - 2 * x)
        if k.denominator != 1 or k < 1:
            return None
        return int(k)
    k = _cheb_index(cp.seed, 2 + 4 * disc / (z_sq - disc))
    if k is None or k < 1 or _r_term(b, c, k) != x:
        return None
    return k


def solve_ratio_power(cp: CharPoly, s0: Rat, s1: Rat) -> Optional[int]:
    """Smallest k >= 1 with s_k == 0 in the complex-eigenvalue regime, or None.

    With eigenvalues l1, l2 (conjugates over d = b^2 - 4c < 0), writing
    s_k = a l1^k + conj(a) l2^k, the zero condition is rho^k = tau for
    rho = l1/l2 and tau = -conj(a)/a.  Since rho is not a root of unity
    here, at most one k exists; it is r_k = -s1/s0, found from the seed
    b^2/c - 2 = 2 Re(rho) by the same index search and r_k ladder as for a
    real rho (`solve_r_eq_x`), which rejects a periodic rho with ValueError.
    """
    if cp.discriminant >= 0:
        raise ValueError("requires complex eigenvalues (negative discriminant)")
    if s0 == 0:
        raise ValueError("s0 must be nonzero (handled upstream as an immediate witness)")
    return solve_r_eq_x(cp, -Fraction(s1) / s0)


def decide_pair(
    n_left: Mat2, v: Mat2, n_right: Mat2, prepared: Optional[Prepared] = None
) -> PairVerdict:
    """Witness with the minimal exponent, or a certified refusal.

    k = 0 (the bare product N_left * N_right) is an admissible witness.
    `prepared` must hold `analyze_inner(v)`, `endpoint(n_left, v)` and
    `endpoint(n_right, v)`; without it they are built here, which validates
    the inputs.  Every witness exponent passes one exact product check.
    """
    if prepared is None:
        left, right = endpoint(n_left, v), endpoint(n_right, v)
        prepared = Prepared(analyze_inner(v), left, right)
    track = pair_problem(prepared)
    inner = prepared.inner
    if track.s0 == 0:
        k = 0
    elif inner.periodic is not None:
        # V^m = scalar * I makes zeros of s repeat with period m: scan one period.
        k = track.first_zero(1, inner.periodic.order)
        if k is None:
            return NoExponent(RefusalReason.PERIODIC_SCAN_EXHAUSTED)
    else:
        k = solve_r_eq_x(inner.char, -track.s1 / track.s0)
        if k is None:
            disc = inner.char.discriminant
            if disc < 0:
                return NoExponent(RefusalReason.RATIO_EQUATION_UNSATISFIABLE)
            if disc > 0:
                return NoExponent(RefusalReason.ZERO_NEVER_HIT_MONOTONE)
            return NoExponent(RefusalReason.SINGLE_CANDIDATE_FAILED)
    if not (n_left * mat_pow(v, k) * n_right).is_zero():
        raise InternalError(f"witness exponent {k} fails the exact product check")
    return Witness(k)
