"""Exact spectral analysis for invertible 2x2 rational matrices.

Three pieces live here:

* ``QuadNum`` -- exact arithmetic in a quadratic extension Q(sqrt(d)), with
  ``quad_pow`` its square-and-multiply power.  The engine no longer uses
  them; they stay only for their tests and the benchmark tracer, until the
  benchmark stops naming them (ROADMAP item 3).
* ``cheb_solve`` -- given rational p, q in [-1, 1], the exact solution set of
  T_n(p) = q over nonnegative integers n, where T_n is the degree-n Chebyshev
  polynomial of the first kind (equivalently cos(n*theta) = q when
  cos(theta) = p).  Its index search, which also serves |p| > 1, is what the
  exponent engine calls for the rational part of its power equation, with
  the seed b^2/c - 2 = 2 Re(rho) of V as its doubled p, for complex and
  real eigenvalues alike.
* ``power_similar_identity`` -- the minimal m >= 1 such that A^m is a nonzero
  rational multiple of the identity, when one exists, read off the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .linalg import CharPoly, InternalError, Mat2, Rat, RatLike, _rat, char_poly, mat_pow


@dataclass(frozen=True, slots=True)
class QuadNum:
    """Exact element re + im * sqrt(d) of a quadratic extension.

    d is a fixed rational radicand shared by all operands of an expression;
    it may have either sign and is not assumed square-free.  Mixing radicands
    is rejected.
    """

    re: Rat
    im: Rat
    d: Rat

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _rat(self.re))
        object.__setattr__(self, "im", _rat(self.im))
        object.__setattr__(self, "d", _rat(self.d))

    def _check(self, other: QuadNum) -> None:
        if self.d != other.d:
            raise ValueError(f"mismatched radicands: {self.d} vs {other.d}")

    @classmethod
    def one(cls, d: RatLike) -> QuadNum:
        return cls(Fraction(1), Fraction(0), _rat(d))

    def __add__(self, other: QuadNum) -> QuadNum:
        if not isinstance(other, QuadNum):
            return NotImplemented
        self._check(other)
        return QuadNum(self.re + other.re, self.im + other.im, self.d)

    def __mul__(self, other: QuadNum) -> QuadNum:
        if not isinstance(other, QuadNum):
            return NotImplemented
        self._check(other)
        return QuadNum(
            self.re * other.re + self.d * self.im * other.im,
            self.re * other.im + self.im * other.re,
            self.d,
        )

    def __pow__(self, k: int) -> QuadNum:
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        result = QuadNum.one(self.d)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self) -> QuadNum:
        return QuadNum(self.re, -self.im, self.d)

    def norm(self) -> Rat:
        """Field norm re^2 - d * im^2; multiplicative."""
        return self.re * self.re - self.d * self.im * self.im


def quad_pow(z: QuadNum, k: int) -> QuadNum:
    """Exact k-th power by square-and-multiply; k = 0 gives 1."""
    return z ** k


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


ChebyshevAnswer = Union[Periodic, Finite, Empty]

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

    tq is given as (numerator, positive denominator) in lowest terms.  The
    track must not repeat, which holds in two cases, each giving at most one
    candidate n:

    * m = den(tp) > 1: writing tp = a/m, the numerator of t_n stays prime to
      m (it is a^n mod any prime of m), so den(t_n) = m^n exactly, whatever
      the size of tp; the candidate is the exponent of den(tq) as a power
      of m, confirmed by one exact evaluation of t_n.
    * integer tp with |tp| > 2: |t_{n+1}| >= |tp| |t_n| - |t_{n-1}| > |t_n|,
      so the candidate is the largest n with |t_n| <= |tq|.  Galloping over
      n = 2^i (t_{2n} = t_n^2 - 2) brackets it in [lo, 2 lo).  As
      |t_n| = lam^n + lam^-n for the eigenvalue lam > 1 of the track, the
      bit length of t_n is n log2(lam) + O(1), so lo * bitlen(tq) //
      bitlen(t_lo) lands within a step or two of n; one ladder evaluates t_n
      and t_{n+1} there, the recurrence t_{n+-1} = tp t_n - t_{n-+1} walks
      to the candidate, and its t_n confirms it.
    """
    a, m = tp.numerator, tp.denominator
    tq_num, tq_den = tq
    if m > 1:
        n = _power_exponent(tq_den, m)
        if n is None:
            return None
        num, _, den = _cheb_ladder(a, m, n)
        return n if num * tq_den == tq_num * den else None
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
    t_n, t_next, _ = _cheb_ladder(a, 1, n)
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


def _cheb_ladder(a: int, m: int, n: int) -> tuple[int, int, int]:
    """(A, B, m^n) with t_n = A / m^n and t_{n+1} = B / m^(n+1) on the track
    of t_1 = a/m, in O(log n) steps.

    Walks the pair (t_j, t_{j+1}) down the bits of n with the doubling
    identities t_{2j} = t_j^2 - 2 and t_{2j+1} = t_j t_{j+1} - t_1, kept as
    integer numerators over m^j and m^(j+1) so that no gcd is ever taken.
    """
    lo, hi, scale = 2, a, 1  # t_j = lo / m^j, t_{j+1} = hi / m^(j+1), scale = m^j
    m_sq = m * m
    for bit in bin(n)[2:]:
        scale_sq = scale * scale
        cross = lo * hi - a * scale_sq
        if bit == "1":
            lo, hi, scale = cross, hi * hi - 2 * m_sq * scale_sq, scale_sq * m
        else:
            lo, hi, scale = lo * lo - 2 * scale_sq, cross, scale_sq
    return lo, hi, scale


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


def power_similar_identity(a: Mat2, cp: Optional[CharPoly] = None) -> Optional[PeriodResult]:
    """Minimal m >= 1 with A^m a nonzero multiple of I, or None.

    Scalar matrices have m = 1.  A non-scalar A has A^m scalar exactly when
    its eigenvalue ratio rho is an m-th root of unity other than 1 (rho = 1
    is a repeated eigenvalue of a defective A).  rho + 1/rho is the seed
    b^2/c - 2 of `CharPoly`, an integer in [-2, 2] for a root of unity, so
    only the seeds -2, -1, 0 and 1 are periodic, with m = 2, 3, 4 and 6;
    real distinct eigenvalues reach them only at b = 0 (seed -2, ratio -1).
    `cp`, if given, is `char_poly(a)`, already at hand in the caller, and
    its c stands in for a's determinant.
    """
    if cp is None:
        cp = char_poly(a)
    if cp.c == 0:
        raise ValueError("matrix must be invertible")
    if a.is_scalar():
        return PeriodResult(1, a.e00)
    order = _ORDER_BY_SEED.get(cp.seed)
    if order is None:
        return None
    power = mat_pow(a, order)
    scalar = power.e00
    if not power.is_scalar() or scalar == 0:
        raise InternalError("order classification is exact")
    return PeriodResult(order, scalar)
