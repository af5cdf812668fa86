"""Exact spectral analysis for invertible 2x2 rational matrices.

Three pieces live here:

* ``quad_pow`` -- the module's one doubling ladder, the power of V in the
  quadratic algebra Q[V]: V^k = alpha_k V + beta_k I by Cayley-Hamilton,
  from V's integer characteristic coefficients b, c alone, in O(log k)
  integer steps.  The pair engine's witness check, ``period_order``'s
  confirmation and the Chebyshev index search's confirmation all take it.
* ``cheb_solve`` -- given rational p, q in [-1, 1], the exact solution set of
  T_n(p) = q over nonnegative integers n, where T_n is the degree-n Chebyshev
  polynomial of the first kind (equivalently cos(n*theta) = q when
  cos(theta) = p).  Its index search, which also serves |p| > 1, is what the
  exponent engine calls for the rational part of its power equation, with
  the seed b^2/c - 2 = 2 Re(rho) of V as its doubled p, for complex and
  real eigenvalues alike.
* ``period_order`` -- the minimal m >= 1 with V^m scalar for an invertible
  integer V, read off its seed and confirmed by one ``quad_pow``;
  ``power_similar_identity`` is its face on a rational ``Mat2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .linalg import IntMat, InternalError, Mat2, Rat, _rat, mat_pow, to_int_mat


def quad_pow(b: int, c: int, k: int) -> tuple[int, int]:
    """Integers (alpha, beta) with V^k = alpha V + beta I, for V of
    characteristic polynomial x^2 + b x + c with int b and c != 0: exactly
    for d = b^2 - 4c != 0, and a nonzero multiple of it for d = 0.

    By Cayley-Hamilton, V^2 = -b V - c I, so from V^j = alpha V + beta I a
    doubling step gives V^(2j) = alpha (2 beta - b alpha) V + (beta^2 -
    c alpha^2) I and a +1 step V^(j+1) = (beta - b alpha) V - c alpha I:
    O(log k) steps on ints.  For d = 0, V^k = lam^(k-1) (k V - (k-1) lam I)
    with lam = -b/2 != 0 gives the multiple (2k, (k-1) b) on O(log k)-bit
    numbers, however large k is.
    """
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    if b * b == 4 * c:
        return 2 * k, (k - 1) * b
    alpha, beta = 0, 1  # V^0
    for bit in bin(k)[2:]:
        alpha, beta = alpha * (2 * beta - b * alpha), beta * beta - c * (alpha * alpha)
        if bit == "1":
            alpha, beta = beta - b * alpha, -c * alpha
    return alpha, beta


@dataclass(frozen=True)
class Periodic:
    """The solution set is a union of residue classes modulo `period`."""

    period: int
    residues: tuple[int, ...]


@dataclass(frozen=True)
class Finite:
    """All solutions, in increasing order (at most one in practice)."""

    solutions: tuple[int, ...]


@dataclass(frozen=True)
class Empty:
    """No nonnegative integer solves the query."""


ChebyshevAnswer = Periodic | Finite | Empty  # not typing.Union: see decider.Verdict

# Doubled-cosine track: t_0 = 2, t_1 = 2p, t_{n+1} = 2p t_n - t_{n-1},
# so t_n = 2 T_n(p) and the query T_n(p) = q reads t_n = 2q.
#
# Order m of a unit whose doubled cosine is the seed l1/l2 + l2/l1, which is
# also the minimal period of the track with t_1 = seed (t_1 = 2 gives the
# constant track).  By Niven's theorem these are the only integer doubled
# cosines in [-2, 2) (a seed of 2 is d = 0), so any other seed leaves every
# power non-scalar.
_ORDER_BY_SEED = {-2: 2, -1: 3, 0: 4, 1: 6}


def cheb_solve(p: Rat, q: Rat) -> ChebyshevAnswer:
    """Exact characterization of { n >= 0 : T_n(p) = q }.

    When 2p is an integer (p in {0, +-1/2, +-1}) the track is periodic, with
    its minimal period read from Niven's table; one period is enumerated.
    Otherwise, with m > 1 the lowest-terms denominator of 2p, the
    denominator of t_n is exactly m^n, which pins down a single candidate n
    from the denominator of 2q; the candidate is confirmed exactly.  Both steps take O(log n) big-integer
    operations.
    """
    p, q = _rat(p), _rat(q)
    if abs(p) > 1 or abs(q) > 1:
        raise ValueError("both query values must lie in [-1, 1]")
    tp = 2 * p
    tq = 2 * q
    if tp.denominator == 1:
        return _solve_periodic(tp, tq)
    n = _cheb_index(tp, (tq.numerator, tq.denominator))
    if n is None:
        return Empty()
    return Finite((n,))


def _cheb_index(tp: Fraction, tq: tuple[int, int]) -> Optional[int]:
    """The n >= 0 with t_n == tq on the track of t_1 = tp, or None.

    tq is (numerator, positive denominator) in lowest terms, and so is
    tp = a/m.  For M of characteristic polynomial x^2 - a x + m^2, exact in
    `quad_pow` as a^2 != 4 m^2 in both cases below, M^n = alpha M + beta I
    gives m^n t_n = tr M^n = a alpha + 2 beta and
    m^(n+1) t_(n+1) = (a alpha + beta) a - 2 m^2 alpha.  The track must not
    repeat, which holds in two cases, each giving at most one candidate n:

    * m > 1: the numerator of t_n stays prime to m (it is a^n mod any prime
      of m), so den(t_n) = m^n exactly, whatever the size of tp; the
      candidate is the exponent n of den(tq) as a power of m.  As den(tq) =
      m^n is then the scale of the trace, one `quad_pow` confirms the
      candidate by its numerator alone.
    * integer tp with |tp| > 2: |t_{n+1}| >= |tp| |t_n| - |t_{n-1}| > |t_n|,
      so the candidate is the largest n with |t_n| <= |tq|.  Galloping over
      n = 2^i (t_{2n} = t_n^2 - 2) brackets it in [lo, 2 lo).  As
      |t_n| = lam^n + lam^-n for the eigenvalue lam > 1 of the track, the
      bit length of t_n is n log2(lam) + O(1), so lo * bitlen(tq) //
      bitlen(t_lo) lands within a step or two of n; one `quad_pow` gives
      t_n and t_{n+1} there, the recurrence t_{n+-1} = tp t_n - t_{n-+1}
      walks to the candidate, and its t_n confirms it.
    """
    a, m = tp.numerator, tp.denominator
    tq_num, tq_den = tq
    if m > 1:
        n = _power_exponent(tq_den, m)
        if n is None:
            return None
        alpha, beta = quad_pow(-a, m * m, n)
        return n if a * alpha + 2 * beta == tq_num else None
    if abs(a) <= 2:
        raise ValueError("an integer doubled cosine in [-2, 2] gives a periodic track")
    bound = abs(tq_num)
    if tq_den != 1 or bound < 2:
        return None
    lo, t_lo, t_hi = 0, 2, a
    while abs(t_hi) <= bound:
        lo, t_lo, t_hi = max(1, 2 * lo), t_hi, t_hi * t_hi - 2
    # |t_lo| <= |tq| < |t_{2 lo}|, or lo = 0 and |tq| < |t_1|
    n = max(lo, min(2 * lo - 1, lo * bound.bit_length() // t_lo.bit_length()))
    alpha, beta = quad_pow(-a, 1, n)
    t_n, t_next = a * alpha + 2 * beta, (a * alpha + beta) * a - 2 * alpha
    while abs(t_next) <= bound:
        n, t_n, t_next = n + 1, t_next, a * t_next - t_n
    while abs(t_n) > bound:
        n, t_n, t_next = n - 1, a * t_n - t_next, t_n
    return n if t_n == tq_num else None


def _power_exponent(value: int, base: int) -> Optional[int]:
    """The n >= 0 with base**n == value, or None; base >= 2, value >= 1.

    Greedy descent over the squares base^(2^i) finds the largest n with
    base**n <= value using O(log n) multiplications; the only division is
    one remainder by the base.
    """
    if value % base:
        return 0 if value == 1 else None
    squares = []
    square = base
    while square <= value:
        squares.append(square)
        square *= square
    n, power = 0, 1
    for i in reversed(range(len(squares))):
        trial = power * squares[i]
        if trial <= value:
            n, power = n + (1 << i), trial
    if power == value:
        return n
    return None


def _solve_periodic(tp: Fraction, tq: Fraction) -> ChebyshevAnswer:
    period = _ORDER_BY_SEED.get(tp, 1)
    track = [Fraction(2), tp]
    while len(track) < period:
        track.append(tp * track[-1] - track[-2])
    residues = tuple(n for n in range(period) if track[n] == tq)
    if not residues:
        return Empty()
    return Periodic(period, residues)


@dataclass(frozen=True)
class PeriodResult:
    """Minimal order m with A^m == scalar * I (scalar nonzero rational)."""

    order: int
    scalar: Rat


def period_order(v: IntMat) -> Optional[int]:
    """Minimal m >= 1 with v^m scalar, for an invertible integer v, or None.

    A non-scalar v (m = 1 otherwise) has v^m scalar exactly when its
    eigenvalue ratio rho is an m-th root of unity other than 1 (rho = 1 is a
    repeated eigenvalue of a defective v).  rho + 1/rho is then the seed
    b^2/c - 2 = trace^2/det - 2, an integer in [-2, 2): one of the keys
    -2, -1, 0 and 1 of `_ORDER_BY_SEED`, with m = 2, 3, 4 and 6.
    """
    trace, det = v[0] + v[3], v[0] * v[3] - v[1] * v[2]
    if det == 0:
        raise ValueError("matrix must be invertible")
    if v[1] == v[2] == 0 and v[0] == v[3]:
        return 1
    order = None if trace * trace % det else _ORDER_BY_SEED.get(trace * trace // det - 2)
    # V^m = alpha V + beta I is scalar iff alpha = 0, as v is not scalar
    if order is not None and quad_pow(-trace, det, order)[0] != 0:
        raise InternalError("order classification is exact")
    return order


def power_similar_identity(a: Mat2) -> Optional[PeriodResult]:
    """`period_order` of a, run on its integer form (a positive multiple of
    a), with the scalar of a^m."""
    order = period_order(to_int_mat(a))
    return None if order is None else PeriodResult(order, mat_pow(a, order).e00)
