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
search names that solution with O(log k) exact doubling steps (when 2p is
an integer, a gallop and a bit-length estimate with one ladder), and one
confirmation accepts it: the doubling ladder r_{2j} = (r_j^2 - c)/(2 r_j - b),
r_{j+1} = c/(b - r_j) must give r_k = x.  That is plain rational equality,
so it also holds when d is a perfect square, and it refuses the conjugate
solution rho^k = conj(tau), which is r_{-k} = x.  The zero discriminant
uses the closed form r_k = (k-1) b / (2k), solved linearly.

Since N (tV)^k M = t^k N V^k M, scaling a member changes nothing, so the
work runs on primitive integer forms, and every member enters through its
integer form and determinant `int_form`, which `decider.decide` takes once
per member and passes in.  `analyze_inner` does what depends on V alone --
the invertibility check, V's canonical form, its characteristic polynomial
with integer b, c and the seed, and the periodicity test -- and `endpoint`
reads a singular member's rank test, primitive column u, primitive row w
and V u off its form.  Per pair only the integer dot products
s0 = w_l . u_r, s1 = w_l . (V u_r), the scalar solve and the witness check
remain, so `decider.decide` builds the first two once and passes them in.
`decide_pair` alone builds them when they are missing, and it alone runs
the exact witness check, whichever branch named the exponent: the members'
integer forms times the integer power of the canonical V (`is_witness`),
with no `Fraction` in the product.

Every returned witness exponent is confirmed by an exact product check;
every refusal is certified by exact arithmetic.  No floating point is used.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, NamedTuple, Optional, Union

from .linalg import (
    CharPoly, IntMat, IntVec, InternalError, Mat2, Rat, RatLike, RankError,
    canon_int_mat, char_poly, int_mat_mul, int_mat_pow, to_int_mat,
)
from .spectral import PeriodResult, _cheb_index, power_similar_identity


_ZERO: IntMat = (0, 0, 0, 0)


class RefusalReason(str, enum.Enum):
    """Certificate kinds for a refused exponent search, named by how it failed:
    the periodic scan, the d = 0 single candidate, or the power equation."""

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
    """s_{k+2} = -b s_{k+1} - c s_k with initial terms s0, s1, all `int`s
    when `pair_problem` builds it."""

    b: RatLike
    c: RatLike
    s0: RatLike
    s1: RatLike

    def terms(self) -> Iterator[RatLike]:
        prev, cur = self.s0, self.s1
        while True:
            yield prev
            prev, cur = cur, -self.b * cur - self.c * prev

    def first_zero(self, lo: int, hi: int) -> Optional[int]:
        """Smallest k in [lo, hi) with s_k == 0, or None."""
        return next((k for k, s in zip(range(hi), self.terms()) if k >= lo and s == 0), None)


@dataclass(frozen=True)
class RecurrenceState:
    """One step of the Moebius iteration: the value r at index k."""

    k: int
    r: Rat


@dataclass(frozen=True)
class InnerAnalysis:
    """What every pair question over one invertible V shares.

    `v` is V's canonical primitive integer form and `char` its characteristic
    polynomial, with integer b and c, the discriminant and the seed;
    `periodic` is the minimal m with V^m a scalar matrix, when one exists.
    """

    v: IntMat
    char: CharPoly
    periodic: Optional[PeriodResult]


IntForm = tuple[IntMat, int]


def int_form(m: Mat2) -> IntForm:
    """A member's integer form `to_int_mat(m)` with its determinant, whose
    sign and zero test are m's own."""
    a = to_int_mat(m)
    return a, a[0] * a[3] - a[1] * a[2]


def analyze_inner(v: Mat2, form: Optional[IntForm] = None) -> InnerAnalysis:
    """Test V's integer form for invertibility, canonicalise it and derive its spectral data once.

    `form`, if given, is `int_form(v)`, already at hand in the caller.
    """
    a, det = int_form(v) if form is None else form
    if det == 0:
        raise ValueError("inner matrix must be invertible")
    canon = canon_int_mat(a)
    v = Mat2(*canon)
    cp = char_poly(v)
    return InnerAnalysis(canon, cp, power_similar_identity(v, cp))


@dataclass(frozen=True)
class Endpoint:
    """A rank-1 member N, a multiple of u w^T, with V u: an end of any pair.

    u, w and V u are integer vectors, u and w primitive with first nonzero
    entry positive, V u on the canonical V.  The left end of a pair uses the
    row factor w, the right end u and V u; the witness check multiplies N's
    integer form `form`.
    """

    u: IntVec
    w: IntVec
    vu: IntVec
    form: IntMat


def endpoint(n: Mat2, v: IntMat, form: Optional[IntForm] = None) -> Endpoint:
    """Check that N has rank 1 and factor it once for every pair it ends.

    On N's integer form: its first nonzero column and row, made primitive,
    are u and w.  `v` is `InnerAnalysis.v`; `form`, if given, is
    `int_form(n)`, already at hand in the caller.
    """
    a, det = int_form(n) if form is None else form
    if a == _ZERO or det != 0:
        raise RankError("endpoint requires a rank-1 matrix")
    u0, u1 = canon_int_mat((a[0], a[2]) if a[0] or a[2] else (a[1], a[3]))
    w = canon_int_mat(a[:2] if a[0] or a[1] else a[2:])
    return Endpoint((u0, u1), w, (v[0] * u0 + v[1] * u1, v[2] * u0 + v[3] * u1), a)


class Prepared(NamedTuple):
    """The hoisted inputs of one pair: V's analysis and both endpoints."""

    inner: InnerAnalysis
    left: Endpoint
    right: Endpoint


def pair_problem(prepared: Prepared) -> ScalarRecurrence:
    """The integer scalar track s_k = w_l . V^k u_r of one pair, from its hoisted data."""
    inner, left, right = prepared
    cp = inner.char
    (w0, w1), (u0, u1), (vu0, vu1) = left.w, right.u, right.vu
    return ScalarRecurrence(cp.b.numerator, cp.c.numerator, w0 * u0 + w1 * u1, w0 * vu0 + w1 * vu1)


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
    closed form.  `cp` must have integer b and c, as `analyze_inner` builds
    it on the canonical V; a rational one raises `ValueError`.
    """
    if cp.c == 0:
        raise ValueError("c must be nonzero (invertible matrix)")
    if cp.b == 0:
        raise ValueError("b = 0 makes V^2 scalar, which is periodic; handle via power_similar_identity")
    if cp.b.denominator != 1 or cp.c.denominator != 1:
        raise ValueError("b and c must be integers; scale V to an integer matrix first")
    b, c = cp.b.numerator, cp.c.numerator
    xn, xd = x.numerator, x.denominator
    disc = b * b - 4 * c
    # z = 2x - b = zn/zd in lowest terms, as gcd(2 xn - b xd, xd) = gcd(2, xd)
    zn, zd = (2 * xn - b * xd, xd) if xd % 2 else (xn - b * (xd // 2), xd // 2)
    zn_sq, zd_sq = zn * zn, zd * zd
    if zn_sq == disc * zd_sq:
        return None  # a fixed point of the Moebius map, never attained
    if disc == 0:
        # closed form r_k = (k-1) b / (2k), so k = b/(b - 2x) = -b zd/zn
        k, rest = divmod(-b * zd, zn)
        return k if rest == 0 and k >= 1 else None
    # With s0 = 1, s1 = -x, a = (z + sqrt(d))/(2 sqrt(d)) has N(a) = (d - z^2)/(4d),
    # and only the rational part of tau = -conj(a)^2/N(a) is needed:
    # 2 tau.re = 2 + 4d zd^2/(zn^2 - d zd^2), where zd is prime to the
    # denominator, so the one gcd has the small operand 4d.
    den = zn_sq - disc * zd_sq
    g = gcd(4 * disc, den) if den > 0 else -gcd(4 * disc, den)
    den //= g
    k = _cheb_index(cp.seed, (2 * den + 4 * disc // g * zd_sq, den))
    if k is None or k < 1:
        return None
    r = _r_term(b, c, k)
    return k if (r.numerator, r.denominator) == (xn, xd) else None


def solve_ratio_power(cp: CharPoly, s0: Rat, s1: Rat) -> Optional[int]:
    """Smallest k >= 1 with s_k == 0 in the complex-eigenvalue regime, or None.

    There the zero condition rho^k = tau has at most one solution, r_k =
    -s1/s0, found by `solve_r_eq_x`, which rejects a periodic rho, on V scaled
    by the lcm t of b's and c's denominators: (t b, t^2 c, t x) keeps k.
    """
    if cp.discriminant >= 0:
        raise ValueError("requires complex eigenvalues (negative discriminant)")
    if s0 == 0:
        raise ValueError("s0 must be nonzero (handled upstream as an immediate witness)")
    t = lcm(cp.b.denominator, cp.c.denominator)
    return solve_r_eq_x(CharPoly(t * cp.b, t * t * cp.c), -t * Fraction(s1) / s0)


def is_witness(n_left: Mat2, inner: InnerAnalysis, n_right: Mat2, k: int) -> bool:
    """N_left V^k N_right == 0, by one exact integer product on the members'
    integer forms and the canonical V (see `_annihilates`)."""
    return _annihilates(to_int_mat(n_left), inner, to_int_mat(n_right), k)


def _annihilates(left: IntMat, inner: InnerAnalysis, right: IntMat, k: int) -> bool:
    """left V^k right == 0 on integers, V the canonical `inner.v`.

    For d = 0, V^k = lam^(k-1) (k V - (k-1) lam I) with lam = -b/2 != 0, so
    the test reads left (2k V + (k-1) b I) right == 0 on O(log k)-bit
    numbers, however large k is; otherwise V^k is powered out by
    `int_mat_pow`.
    """
    v = inner.v
    if inner.char.discriminant == 0:
        shift = (k - 1) * inner.char.b.numerator
        power = (2 * k * v[0] + shift, 2 * k * v[1], 2 * k * v[2], 2 * k * v[3] + shift)
    else:
        power = int_mat_pow(v, k)
    return int_mat_mul(int_mat_mul(left, power), right) == _ZERO


def decide_pair(
    n_left: Mat2, v: Mat2, n_right: Mat2, prepared: Optional[Prepared] = None
) -> PairVerdict:
    """Witness with the minimal exponent, or a certified refusal.

    k = 0 (the bare product N_left * N_right) is an admissible witness.
    `prepared` must hold `inner = analyze_inner(v)`, `endpoint(n_left,
    inner.v)` and `endpoint(n_right, inner.v)`; without it they are built
    here, which validates the inputs.  Every witness exponent passes the
    exact product check of `is_witness`, on the endpoints' integer forms.
    Off the periodic scan a refusal names the solve:
    `SINGLE_CANDIDATE_FAILED` at d = 0, else `RATIO_EQUATION_UNSATISFIABLE`.
    """
    if prepared is None:
        inner = analyze_inner(v)
        prepared = Prepared(inner, endpoint(n_left, inner.v), endpoint(n_right, inner.v))
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
        k = solve_r_eq_x(inner.char, Fraction(-track.s1, track.s0))
        if k is None:
            if inner.char.discriminant == 0:
                return NoExponent(RefusalReason.SINGLE_CANDIDATE_FAILED)
            return NoExponent(RefusalReason.RATIO_EQUATION_UNSATISFIABLE)
    if not _annihilates(prepared.left.form, inner, prepared.right.form, k):
        raise InternalError(f"witness exponent {k} fails the exact product check")
    return Witness(k)
