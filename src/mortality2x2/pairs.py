"""Decide N_left * V^k * N_right = 0 for singular endpoints and invertible V.

The question collapses to a scalar one: with N_left = u_l v_l^T and
N_right = u_r v_r^T, the product is zero exactly when
s_k = v_l^T V^k u_r vanishes, and s obeys the order-2 recurrence
s_{k+2} = -b s_{k+1} - c s_k driven by the characteristic polynomial
x^2 + b x + c of V.

When V^m is a scalar matrix for some m <= 6, zeros of s repeat with period
m, and one period s_1 .. s_{m-1} is scanned by the recurrence on ints.
Otherwise V^k ~ V + r_k I, where r_1 = 0 and
r_k = c/(b - r_{k-1}) is a Moebius iteration, and s_k = 0 is equivalent to
r_k = x with x = -s_1/s_0.  For d = b^2 - 4c != 0 both readings are one
power equation rho^k = tau over Q(sqrt(d)): rho = l1/l2 is the eigenvalue
ratio and tau = -conj(a)/a for s_k = a l1^k + conj(a) l2^k.  Since
N(rho) = 1, its rational part is the Chebyshev equation T_k(p) = q with
2p = rho + 1/rho = b^2/c - 2, the seed of `CharPoly`, so rho itself is
never built.  The equation has at most one solution off the periodic case,
whatever the sign of d (|p| < 1 for d < 0, |p| > 1 for d > 0).  One index
search, `spectral._cheb_index`, names that solution and checks it on the
track 2 T_k(p) with one `spectral.quad_pow` (after a gallop and a bit-length
estimate when 2p is an integer), and one confirmation accepts it: the
`Fraction` ladder `_r_term`, r_{2j} = (r_j^2 - c)/(2 r_j - b),
r_{j+1} = c/(b - r_j), must give r_k = x.  That is plain rational equality,
so it also holds when d is a perfect square, and it refuses the conjugate
solution rho^k = conj(tau), which is r_{-k} = x.  The zero discriminant
uses the closed form r_k = (k-1) b / (2k), solved linearly.

Since N (tV)^k M = t^k N V^k M, scaling a member changes nothing, so the
work runs on primitive integer forms, and every member enters through its
integer form and determinant `linalg.int_form`, the one input of
`analyze_inner` and `endpoint`.  `analyze_inner` does what depends on V
alone -- the invertibility check, V's canonical form and, on that form, its
`int` b and c with the seed (`CharPoly`) and the period test
`period_order` -- and `endpoint` takes a singular member's rank test,
primitive column u and primitive row w from `linalg.rank_one_factors`, the
package's one rank-1 factorization, and adds V u.  Per pair there remain only
`pair_problem`'s two ints s0 = w_l . u_r and s1 = w_l . (V u_r) (with b and
c they fix s), the scan or the scalar solve, and the witness check, so
`decider.decide` builds the rest once and passes it in as a plain tuple,
`Prepared`, with no constructor run per pair; a bare `decide_pair` takes the
three forms itself and then runs the same path.  The scalar solve runs on
ints: x = -s1/s0 is reduced by one gcd and handed, as numerator and
positive denominator, to `_r_index`, the integer core behind the public
`solve_r_eq_x`, whose guards V's analysis already meets.  A refusal is one
of three `NoExponent` values built once, with the module.  `decide_pair`
alone runs the exact witness check, whichever branch named the exponent:
`is_witness` writes V^k = alpha V + beta I by the Cayley-Hamilton ladder
of `spectral.quad_pow`, O(log k) integer steps, and tests
w_l . (alpha (V u_r) + beta u_r) == 0 on the pair's endpoints, with no
matrix power and no `Fraction`.

Most refusals need none of that: a modular orbit sieve refuses them
without a call.  Take a prime q that does not divide det V (on V's
canonical form, so V mod q is invertible and permutes the q + 1 points of
P^1(F_q)).  u_r and perp(w_l) are primitive, so neither is 0 mod q.  If
N_l V^k N_r = 0 then V^k u_r is an integer multiple of the primitive
perp(w_l), by a factor that V^k u_r != 0 mod q keeps nonzero mod q, so
[V^k u_r] = [perp(w_l)] in P^1(F_q): the two points share an orbit of V
mod q.  When they do not, for any prime, the pair has no exponent at all,
and that refusal is exact.  `orbit_sieve` labels each point by the least
point of its orbit (`orbit_labels`), once per V, for each prime of
`SIEVE_PRIMES` = 2 .. 13 not dividing det V, through a static per-prime
table from (x mod q, y mod q) to a point; `endpoint` folds an end's labels
into one int per side, `left_key` from perp(w) and `right_key` from u.
`decider.decide` joins left ends to right ends on equal keys and calls
`decide_pair` only for those pairs, so `decide_pair` compares no keys and
always takes the exact path.  The labels cost about 11 us per V and each
key about 0.4 us (Python 3.11), so `decide` builds them only from
`SIEVE_MIN_SINGULARS` singular members on; a bare `decide_pair` builds no
keys.

Every returned witness exponent is confirmed by this exact scalar check;
every refusal is certified by exact arithmetic.  No floating point is used.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, NamedTuple, Optional

from .linalg import (
    CharPoly, IntForm, IntMat, IntVec, InternalError, Mat2, Rat, canon_int_mat, int_form,
    rank_one_factors,
)
from .spectral import _cheb_index, period_order, quad_pow


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


PairVerdict = Witness | NoExponent  # not typing.Union: see decider.Verdict

# The three refusals, built once: `decide_pair` returns these shared values.
_SCAN_EXHAUSTED = NoExponent(RefusalReason.PERIODIC_SCAN_EXHAUSTED)
_CANDIDATE_FAILED = NoExponent(RefusalReason.SINGLE_CANDIDATE_FAILED)
_RATIO_UNSATISFIABLE = NoExponent(RefusalReason.RATIO_EQUATION_UNSATISFIABLE)


@dataclass(frozen=True)
class RecurrenceState:
    """One step of the Moebius iteration: the value r at index k."""

    k: int
    r: Rat


@dataclass(frozen=True)
class InnerAnalysis:
    """What every pair question over one invertible V shares.

    `v` is V's canonical primitive integer form and `char` its characteristic
    polynomial, with `int` b and c, the discriminant and the seed; `order`
    is the minimal m with V^m a scalar matrix, when one exists.  `refusal`
    is the shared `NoExponent` of every pair over V that has no exponent,
    named by V's regime: the periodic scan, else the d = 0 candidate, else
    the power equation.
    """

    v: IntMat
    char: CharPoly
    order: Optional[int]
    refusal: NoExponent


def analyze_inner(form: IntForm) -> InnerAnalysis:
    """Test V's integer form `int_form(v)` for invertibility, canonicalise it
    and derive its spectral data once."""
    a, det = form
    if det == 0:
        raise ValueError("inner matrix must be invertible")
    v = canon_int_mat(a)
    char = CharPoly(-(v[0] + v[3]), v[0] * v[3] - v[1] * v[2])
    order = period_order(v)
    if order is not None:
        refusal = _SCAN_EXHAUSTED
    elif char.discriminant == 0:
        refusal = _CANDIDATE_FAILED
    else:
        refusal = _RATIO_UNSATISFIABLE
    return InnerAnalysis(v, char, order, refusal)


def _projective_points(q: int) -> tuple[int, ...]:
    """The point of P^1(F_q) through each residue vector (x, y), at x q + y:
    [x y^-1 : 1] is point x y^-1 mod q, and [1 : 0] is point q.  The entry
    of (0, 0) is never read, since a primitive vector is nonzero mod q."""
    inverse = [0] + [pow(y, -1, q) for y in range(1, q)]
    return tuple(x * inverse[y] % q if y else q for x in range(q) for y in range(q))


# The sieve's primes, each with its static table of `_projective_points`.
SIEVE_PRIMES = (2, 3, 5, 7, 11, 13)
_POINTS = {q: _projective_points(q) for q in SIEVE_PRIMES}


def orbit_labels(v: IntMat, q: int, weight: int = 1) -> list[int]:
    """For each point of P^1(F_q), numbered as by `_projective_points`,
    `weight` times the least point of its orbit under V mod q, for q in
    `SIEVE_PRIMES` not dividing det V: the orbits are the cycles of that
    permutation."""
    a, b, c, d = v
    points = _POINTS[q]
    image = [points[(a * x + b) % q * q + (c * x + d) % q] for x in range(q)]
    image.append(points[a % q * q + c % q])
    labels = [-1] * (q + 1)
    for start, point in enumerate(image):
        if labels[start] < 0:
            labels[start] = label = start * weight
            while point != start:
                labels[point] = label
                point = image[point]
    return labels


# V's orbit labels for each prime of `SIEVE_PRIMES` that does not divide its
# determinant, as (q, the point table, the labels): each prime's labels are
# weighted by the product of the earlier primes' q + 1, so summing one label
# per prime folds them into one int that names their tuple.
OrbitSieve = tuple[tuple[int, tuple[int, ...], list[int]], ...]


def orbit_sieve(inner: InnerAnalysis) -> OrbitSieve:
    """V's orbit labels for `endpoint`'s keys, built once per V."""
    sieve, weight = [], 1
    for q, points in _POINTS.items():
        if inner.char.c % q:
            sieve.append((q, points, orbit_labels(inner.v, q, weight)))
            weight *= q + 1
    return tuple(sieve)


def _orbit_key(sieve: OrbitSieve, x: int, y: int) -> int:
    """The folded orbit labels of the point [x : y], for a primitive (x, y)."""
    key = 0
    for q, points, labels in sieve:
        key += labels[points[x % q * q + y % q]]
    return key


class Endpoint(NamedTuple):
    """A rank-1 member N, a multiple of u w^T, with V u: an end of any pair.

    u, w and V u are integer vectors, u and w primitive with first nonzero
    entry positive, V u on the canonical V.  The left end of a pair uses the
    row factor w, the right end u and V u, in the scalar track and in the
    witness check alike.  With an `orbit_sieve`, `left_key` folds the orbit
    labels of perp(w) and `right_key` those of u; else both are None.
    `decider.decide` pairs a left end only with right ends of equal key.  A
    `NamedTuple`, which is built in about half the time of a frozen
    dataclass of these five fields.
    """

    u: IntVec
    w: IntVec
    vu: IntVec
    left_key: Optional[int] = None
    right_key: Optional[int] = None


def endpoint(form: IntForm, v: IntMat, sieve: Optional[OrbitSieve] = None) -> Endpoint:
    """Check that N has rank 1 and factor it once for every pair it ends.

    u and w are `rank_one_factors(form)`, on N's integer form
    `form = int_form(n)`; `v` is `InnerAnalysis.v`, and `sieve`, if given,
    its `orbit_sieve`.
    """
    (u0, u1), w = rank_one_factors(form)
    vu = (v[0] * u0 + v[1] * u1, v[2] * u0 + v[3] * u1)
    if sieve is None:
        return Endpoint((u0, u1), w, vu)
    return Endpoint((u0, u1), w, vu, _orbit_key(sieve, -w[1], w[0]), _orbit_key(sieve, u0, u1))


# The hoisted inputs of one pair, (inner, left, right): V's analysis and both
# endpoints.  A plain tuple, so a caller builds one with no constructor call.
Prepared = tuple[InnerAnalysis, Endpoint, Endpoint]


def pair_problem(prepared: Prepared) -> tuple[int, int]:
    """The first two terms s0 = w_l . u_r and s1 = w_l . (V u_r) of one pair's
    integer scalar track s_k = w_l . V^k u_r, from its hoisted data; with
    `inner.char`'s b and c they fix every later term."""
    _, left, right = prepared
    (w0, w1), (u0, u1), (vu0, vu1) = left.w, right.u, right.vu
    return w0 * u0 + w1 * u1, w0 * vu0 + w1 * vu1


def r_next(b: Rat, c: Rat, r_prev: Rat) -> Optional[Rat]:
    """One Moebius step c/(b - r_prev); None when the step is undefined.

    The undefined step can only occur when V^k is itself similar to the
    identity, which callers exclude via `period_order`.
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


def _r_term(b: int, c: int, k: int) -> Rat:
    """r_k for k >= 1 in O(log k) exact steps, on V's integer b and c.

    From V^j ~ V + r_j I: (V + r I)^2 = (2r - b) V + (r^2 - c) I gives
    r_{2j} = (r_j^2 - c)/(2 r_j - b), built from r_j = p/q as the one
    `Fraction` (p^2 - c q^2)/(q (2p - b q)), and one Moebius step gives
    r_{j+1}.  Requires that no power of V is similar to the identity.
    """
    r = Fraction(0)  # r_1
    for bit in bin(k)[3:]:
        p, q = r.numerator, r.denominator
        r = Fraction(p * p - c * q * q, q * (2 * p - b * q))
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
    it on the canonical V; a rational one raises `ValueError`.  The guards
    run here; the solve is `_r_index` on x's numerator and denominator, the
    integer core that `decide_pair` calls directly.
    """
    if cp.c == 0:
        raise ValueError("c must be nonzero (invertible matrix)")
    if cp.b == 0:
        raise ValueError("b = 0 makes V^2 scalar, which is periodic; handle via period_order")
    if type(cp.b) is not int:  # `CharPoly` keeps b and c as ints only when both are
        if cp.b.denominator != 1 or cp.c.denominator != 1:
            raise ValueError("b and c must be integers; scale V to an integer matrix first")
        cp = CharPoly(cp.b.numerator, cp.c.numerator)
    return _r_index(cp, x.numerator, x.denominator)


def _r_index(char: CharPoly, xn: int, xd: int) -> Optional[int]:
    """`solve_r_eq_x` past its guards: the k >= 1 with r_k == xn/xd, or None,
    for `char` with `int` b != 0 and c != 0 and no periodic power, and
    x = xn/xd in lowest terms with xd > 0."""
    b, c, disc = char.b, char.c, char.discriminant
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
    k = _cheb_index(char.seed, (2 * den + 4 * disc // g * zd_sq, den))
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


def is_witness(prepared: Prepared, k: int) -> bool:
    """N_left V^k N_right == 0, exactly, on one pair's hoisted data.

    With N_left ~ u_l w_l^T and N_right ~ u_r w_r^T the product vanishes
    exactly when w_l . V^k u_r does, and V^k ~ alpha V + beta I by
    `quad_pow`.  The vector alpha (V u_r) + beta u_r is built first, since
    u_r and V u_r are small even when w_l is not, and one dot product with
    w_l tests it.
    """
    inner, left, right = prepared
    alpha, beta = quad_pow(inner.char.b, inner.char.c, k)
    (w0, w1), (u0, u1), (vu0, vu1) = left.w, right.u, right.vu
    return w0 * (alpha * vu0 + beta * u0) + w1 * (alpha * vu1 + beta * u1) == 0


def decide_pair(
    n_left: Mat2, v: Mat2, n_right: Mat2, prepared: Optional[Prepared] = None
) -> PairVerdict:
    """Witness with the minimal exponent, or a certified refusal.

    k = 0 (the bare product N_left * N_right) is an admissible witness.
    `prepared` must hold `analyze_inner` and `endpoint` of the integer
    forms `int_form` of v, n_left and n_right; without it they are built
    here, which validates the inputs.  From `pair_problem`'s s0 and s1: k = 0
    when s0 == 0; for V of period m, the first zero of s_1 .. s_{m-1} or
    `PERIODIC_SCAN_EXHAUSTED`; otherwise the solve of `solve_r_eq_x` on
    x = -s1/s0, reduced by one gcd of the two ints (its integer core
    `_r_index`, as `inner` already meets the guards), whose refusal is
    `SINGLE_CANDIDATE_FAILED` at d = 0, else `RATIO_EQUATION_UNSATISFIABLE`.
    The endpoints' orbit keys are not read: `decider.decide` joins on them
    and calls this only for the pairs whose keys agree.
    A refusal is one of three shared `NoExponent` values.  Every witness
    exponent passes the exact check of `is_witness`, on the endpoints'
    factors and V's integer b and c.
    """
    if prepared is None:
        inner = analyze_inner(int_form(v))
        prepared = (inner, *(endpoint(int_form(n), inner.v) for n in (n_left, n_right)))
    inner = prepared[0]
    s0, s1 = pair_problem(prepared)
    if s0 == 0:
        k = 0
    elif inner.order is not None:
        # V^m = scalar * I makes zeros of s repeat with period m: scan s_1 .. s_{m-1}.
        b, c, prev, cur = inner.char.b, inner.char.c, s0, s1
        for k in range(1, inner.order):
            if cur == 0:
                break
            prev, cur = cur, -b * cur - c * prev
        else:
            return inner.refusal
    else:
        # x = -s1/s0 in lowest terms, its denominator positive: one gcd.
        g = gcd(s0, s1) if s0 > 0 else -gcd(s0, s1)
        k = _r_index(inner.char, -s1 // g, s0 // g)
        if k is None:
            return inner.refusal
    if not is_witness(prepared, k):
        raise InternalError(f"witness exponent {k} fails the exact witness check")
    return Witness(k)
