"""Pair engine: the Moebius iteration, the exponent solver with its
complex-eigenvalue entry point, and the pair decision with its certificates."""

import random
import time
from fractions import Fraction
from math import isqrt, lcm

import pytest

from mortality2x2 import InternalError, Mat2, RankError
from mortality2x2.linalg import (
    CharPoly, Vec2, canon_int_mat, char_poly, factor_rank_one, is_scalar_multiple, mat_pow, outer,
)
from mortality2x2.pairs import (
    NoExponent,
    Prepared,
    RefusalReason,
    ScalarRecurrence,
    Witness,
    analyze_inner,
    decide_pair,
    endpoint,
    is_witness,
    iter_recurrence,
    pair_problem,
    r_next,
    solve_r_eq_x,
    solve_ratio_power,
)
from mortality2x2 import pairs
from helpers import (
    REGIMES,
    plant_pair,
    r_value,
    rand_invertible_int,
    rand_nonperiodic_invertible,
    rand_rank_one,
    rand_rat,
    scan_pair_zeros,
)


def mat(rows):
    return Mat2.from_rows(rows)


def _prepared(n_left, v, n_right):
    inner = analyze_inner(v)
    return Prepared(inner, endpoint(n_left, inner.v), endpoint(n_right, inner.v))


# --------------------------------------------------------------------- r_next


def test_r_next_examples():
    assert r_next(Fraction(-3), Fraction(2), Fraction(0)) == Fraction(-2, 3)
    assert r_next(Fraction(-3), Fraction(2), Fraction(-2, 3)) == Fraction(-6, 7)
    assert r_next(Fraction(5), Fraction(3), Fraction(5)) is None
    with pytest.raises(ValueError):
        r_next(Fraction(1), Fraction(0), Fraction(0))


def test_iter_recurrence_prefix():
    states = []
    for state in iter_recurrence(CharPoly(-3, 2)):
        states.append((state.k, state.r))
        if state.k == 4:
            break
    assert states == [
        (1, Fraction(0)),
        (2, Fraction(-2, 3)),
        (3, Fraction(-6, 7)),
        (4, Fraction(-14, 15)),
    ]


def test_iter_recurrence_stops_when_undefined():
    # trace-zero matrix: r_2 = c/b is already undefined
    states = list(iter_recurrence(CharPoly(0, 1)))
    assert [s.k for s in states] == [1]


# ---------------------------------------------------------------- solve_r_eq_x


def test_solve_r_eq_x_examples():
    cp = CharPoly(-3, 2)
    assert solve_r_eq_x(cp, Fraction(0)) == 1
    assert solve_r_eq_x(cp, Fraction(-6, 7)) == 3
    assert solve_r_eq_x(cp, Fraction(-1)) is None  # attracting fixed point
    assert solve_r_eq_x(CharPoly(-2, 1), Fraction(-1, 2)) == 2  # double root


def test_solve_r_eq_x_oscillating_regime():
    # c < 0 puts the fixed points on opposite sides of zero: iterates
    # alternate around the attractor (0, -1, -1/2, -2/3, -3/5, ...)
    cp = CharPoly(1, -1)
    assert solve_r_eq_x(cp, Fraction(-1)) == 2
    assert solve_r_eq_x(cp, Fraction(-3, 5)) == 5
    assert solve_r_eq_x(cp, Fraction(-5, 8)) == 6
    assert solve_r_eq_x(cp, Fraction(1)) is None
    assert solve_r_eq_x(cp, Fraction(-13, 21)) == 8
    assert solve_r_eq_x(cp, Fraction(-999, 1000)) is None


def test_solve_r_eq_x_double_root_misses():
    # closed form (k-1) b / (2k): non-integer or negative solutions refuse
    cp = CharPoly(-2, 1)
    assert solve_r_eq_x(cp, Fraction(-1, 3)) is None
    assert solve_r_eq_x(cp, Fraction(-1)) is None  # x = b/2 is the limit of r_k, never attained
    assert solve_r_eq_x(cp, Fraction(17)) is None


def test_solve_r_eq_x_matches_iteration_everywhere():
    rng = random.Random(2718)
    for _ in range(200):
        v = rand_nonperiodic_invertible(rng)
        cp = char_poly(v)
        values = []
        for state in iter_recurrence(cp):
            values.append(state.r)
            if state.k == 25:
                break
        k_star = rng.randint(1, 25)
        assert solve_r_eq_x(cp, values[k_star - 1]) == k_star


def test_solve_r_eq_x_certified_absences_do_not_lie():
    rng = random.Random(1618)
    for _ in range(300):
        v = rand_nonperiodic_invertible(rng)
        cp = char_poly(v)
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        answer = solve_r_eq_x(cp, x)
        reached = set()
        for state in iter_recurrence(cp):
            if state.k > 64:
                break
            reached.add(state.r)
        if answer is None:
            assert x not in reached
        else:
            assert 1 <= answer
            if answer <= 64:
                assert x in reached


def _is_square(q: Fraction) -> bool:
    return isqrt(q.numerator) ** 2 == q.numerator and isqrt(q.denominator) ** 2 == q.denominator


def test_solve_r_eq_x_positive_discriminant_matches_iteration():
    # r_k is found at its index for k up to 200, and values next to it are
    # refused, for square and non-square positive discriminants and, as a
    # second input set, for negative ones: one solver serves every sign
    rng = random.Random(3141)
    squares = []
    for sign in (1, -1):
        solved = 0
        while solved < 40:
            cp = char_poly(rand_nonperiodic_invertible(rng))
            if sign * cp.discriminant <= 0:
                continue
            solved += 1
            if sign > 0:
                squares.append(_is_square(cp.discriminant))
            values = [state.r for state, _ in zip(iter_recurrence(cp), range(200))]
            for k_star in [1, 2, 3, 200] + rng.sample(range(4, 200), 12):
                x = values[k_star - 1]
                assert solve_r_eq_x(cp, x) == k_star
                near = x + Fraction(1, rng.randint(2, 9) * x.denominator)
                answer = solve_r_eq_x(cp, near)
                if near in values:
                    assert answer == values.index(near) + 1
                else:
                    assert answer is None or (answer > 200 and r_value(cp, answer) == near)
            # r_{-j} (V^-j ~ V + r_{-j} I) solves the same Chebyshev equation
            # as an r_j, through rho^j = 1/tau; only the exact check refuses it
            x = cp.b  # r_{-1}
            for _ in range(30):
                assert solve_r_eq_x(cp, x) is None
                x = cp.b - cp.c / x
    assert any(squares) and not all(squares)


def test_solve_r_eq_x_rejects_periodic_shapes():
    with pytest.raises(ValueError):
        solve_r_eq_x(CharPoly(0, -1), Fraction(1, 2))  # b = 0, disc > 0
    with pytest.raises(ValueError):
        solve_r_eq_x(CharPoly(1, 0), Fraction(1, 2))  # c = 0


def test_solve_r_eq_x_rejects_a_rational_char_poly():
    # the engine hands it integer b and c only; rational ones are scaled by the caller
    with pytest.raises(ValueError):
        solve_r_eq_x(CharPoly(Fraction(1, 2), 3), Fraction(1, 3))


def test_solve_r_eq_x_complex_delegation():
    # a negative discriminant takes the same index search and r_k ladder
    cp = CharPoly(-1, 2)
    assert solve_r_eq_x(cp, Fraction(-2)) == 2  # x = -s1/s0 with s0=1, s1=2
    assert solve_r_eq_x(cp, Fraction(-1)) is None


# ------------------------------------------------------------ solve_ratio_power


def test_solve_ratio_power_examples():
    cp = CharPoly(-1, 2)
    assert solve_ratio_power(cp, Fraction(1), Fraction(1)) is None
    assert solve_ratio_power(cp, Fraction(1), Fraction(2)) == 2


def test_solve_ratio_power_matches_scanning():
    rng = random.Random(40490)
    checked = 0
    while checked < 400:
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        cp = CharPoly(b, c)
        if c == 0 or cp.discriminant >= 0:
            continue
        if (b * b - 2 * c) / (2 * c) in {Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1)}:
            continue
        s0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        s1 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if s0 == 0:
            continue
        checked += 1
        answer = solve_ratio_power(cp, s0, s1)
        track = ScalarRecurrence(b, c, s0, s1)
        zeros = [k for k, s in zip(range(65), track.terms()) if s == 0 and k >= 1]
        if answer is None:
            assert zeros == []
        else:
            assert zeros[:1] == [answer] or answer > 64


def test_solve_ratio_power_validation():
    with pytest.raises(ValueError):
        solve_ratio_power(CharPoly(-3, 2), Fraction(1), Fraction(1))  # disc > 0
    with pytest.raises(ValueError):
        solve_ratio_power(CharPoly(-1, 2), Fraction(0), Fraction(1))  # s0 = 0
    with pytest.raises(ValueError):
        solve_ratio_power(CharPoly(0, 1), Fraction(1), Fraction(1))  # rho = -1, periodic


# ------------------------------------------------------------------ decide_pair


def test_decide_pair_worked_example():
    n = mat([[7, -8], [0, 0]])
    v = mat([[2, 0], [1, 1]])
    track = pair_problem(_prepared(n, v, n))
    assert track.s0 == 7
    assert track.s1 == 6
    assert Fraction(-track.s1, track.s0) == Fraction(-6, 7)
    assert decide_pair(n, v, n) == Witness(3)


def test_decide_pair_periodic_scan():
    n = mat([[1, 0], [0, 0]])
    v = mat([[1, -1], [1, 1]])  # v^4 = -4 I
    assert decide_pair(n, v, n) == Witness(2)


def test_decide_pair_certified_refusal():
    n = mat([[1, 0], [0, 0]])
    v = mat([[1, -2], [1, 0]])
    verdict = decide_pair(n, v, n)
    assert verdict == NoExponent(RefusalReason.RATIO_EQUATION_UNSATISFIABLE)
    # independent scan deep past the certificate
    assert scan_pair_zeros(n, v, n, 64) == set()


def test_decide_pair_immediate_witness():
    # orthogonal inner factors: the bare product of the endpoints is zero
    n = mat([[0, 0], [1, 0]])
    v = mat([[3, 1], [1, 1]])
    assert (n * n).is_zero()
    assert decide_pair(n, v, n) == Witness(0)


def test_decide_pair_validation():
    v = mat([[2, 0], [1, 1]])
    n = mat([[1, 0], [0, 0]])
    with pytest.raises(RankError):
        decide_pair(Mat2.zero(), v, n)
    with pytest.raises(RankError):
        decide_pair(n, v, Mat2.identity())
    with pytest.raises(ValueError):
        decide_pair(n, mat([[1, 1], [1, 1]]), n)


def test_decide_pair_periodic_reasons():
    # v ~ I: s_k never vanishes once s0 != 0
    n = mat([[1, 2], [2, 4]])
    assert decide_pair(n, Mat2.identity().scale(3), n) == NoExponent(
        RefusalReason.PERIODIC_SCAN_EXHAUSTED
    )


def test_similarity_to_shifted_matrix():
    # V^k is a nonzero multiple of V + r_k I while the iteration runs
    rng = random.Random(77)
    identity = Mat2.identity()
    for _ in range(100):
        v = rand_nonperiodic_invertible(rng)
        cp = char_poly(v)
        for state in iter_recurrence(cp):
            if state.k > 30:
                break
            shifted = v + identity.scale(state.r)
            assert is_scalar_multiple(mat_pow(v, state.k), shifted) is not None


def test_recurrence_values_distinct_without_periodicity():
    rng = random.Random(78)
    for _ in range(100):
        v = rand_nonperiodic_invertible(rng)
        values = []
        for state in iter_recurrence(char_poly(v)):
            if state.k > 30:
                break
            values.append(state.r)
        assert len(values) == 30
        assert len(set(values)) == 30


def test_scalar_track_matches_matrix_products():
    rng = random.Random(79)
    for _ in range(100):
        nl = rand_rank_one(rng, 3, 3)
        nr = rand_rank_one(rng, 3, 3)
        v = rand_invertible_int(rng, -3, 3)
        track = pair_problem(_prepared(nl, v, nr))
        zeros = scan_pair_zeros(nl, v, nr, 30)
        for k, s in zip(range(31), track.terms()):
            assert (s == 0) == (k in zeros)


def test_decide_pair_completeness_vs_scanning():
    # certified refusals are never contradicted by exhaustive scanning
    rng = random.Random(424242)
    for _ in range(10_000):
        nl = rand_rank_one(rng, 3, 3)
        nr = rand_rank_one(rng, 3, 3)
        v = rand_invertible_int(rng, -3, 3)
        verdict = decide_pair(nl, v, nr)
        if isinstance(verdict, Witness):
            assert (nl * mat_pow(v, verdict.k) * nr).is_zero()
            if verdict.k <= 64:
                assert min(scan_pair_zeros(nl, v, nr, 64)) == verdict.k
        else:
            assert scan_pair_zeros(nl, v, nr, 64) == set()


def test_planted_witness_recovery_all_regimes():
    for name, v in REGIMES.items():
        for k_star in range(1, 41):
            n = plant_pair(v, k_star)
            verdict = decide_pair(n, v, n)
            assert verdict == Witness(k_star), (name, k_star, verdict)


# Non-periodic representatives beyond REGIMES: both index searches of the
# positive discriminant (fractional and integer 2p = 2 Re(rho)), square and
# non-square discriminants, eigenvalues of equal and opposite signs.
NONPERIODIC = {
    "pos_square_same_sign": mat([[2, 0], [1, 1]]),
    "pos_square_opposite_sign": mat([[3, 0], [1, -1]]),
    "pos_nonsquare_integer_2p": mat([[2, 1], [1, 1]]),
    "pos_nonsquare_integer_2p_opposite_sign": mat([[1, 1], [1, 0]]),
    "pos_nonsquare_fractional_2p": mat([[1, 2], [3, 1]]),
    "zero": mat([[1, 1], [0, 1]]),
    "zero_scaled": mat([[2, 1], [0, 2]]),
    "negative": mat([[1, -2], [1, 0]]),
}


@pytest.mark.parametrize("name", sorted(NONPERIODIC))
def test_decide_pair_planted_deep_exponent(name):
    # N = u w^T with w orthogonal to V^k u vanishes first at k; the planting
    # uses only mat_pow, not the exponent solvers
    v, k = NONPERIODIC[name], 10_000
    power = mat_pow(v, k)
    for u in (Vec2(1, 0), Vec2(0, 1), Vec2(1, 1)):
        w = power.mul_vec(u).perp()
        if w.dot(u) != 0:
            break
    n = outer(u, w)
    assert decide_pair(n, v, n) == Witness(k)


def test_decide_pair_refuses_fixed_point_target():
    # u an eigenvector of V makes x = -s1/s0 a fixed point of the Moebius
    # map (N(a) = 0 with a square discriminant): s_k = lambda^k s0 != 0
    v = mat([[2, 0], [1, 1]])  # eigenvectors (1, 1) and (0, 1)
    for u in (Vec2(1, 1), Vec2(0, 1)):
        n = outer(u, Vec2(1, 2))
        track = pair_problem(_prepared(n, v, n))
        assert Fraction(-track.s1, track.s0) in (Fraction(-1), Fraction(-2))
        assert decide_pair(n, v, n) == NoExponent(RefusalReason.RATIO_EQUATION_UNSATISFIABLE)
        assert scan_pair_zeros(n, v, n, 64) == set()


def test_decide_pair_zero_discriminant_refusal():
    # d = 0 (V = [[1, 0], [12, 1]]): with u = (1, 0) and w = (1, 1),
    # s_j = 1 + 12 j never vanishes, so the closed form's one candidate fails
    v = mat([[1, 0], [12, 1]])
    n = mat([[1, 1], [0, 0]])
    assert char_poly(v).discriminant == 0
    assert decide_pair(n, v, n) == NoExponent(RefusalReason.SINGLE_CANDIDATE_FAILED)
    assert scan_pair_zeros(n, v, n, 64) == set()


def _old_endpoint_factors(n):
    """u and w by the rational route: `factor_rank_one`, u cleared of its
    denominators (it leads with 1, so that is primitive), w made canonical."""
    u, w = factor_rank_one(n)
    t = lcm(u.x0.denominator, u.x1.denominator)
    s = lcm(w.x0.denominator, w.x1.denominator)
    return (int(t * u.x0), int(t * u.x1)), canon_int_mat((int(s * w.x0), int(s * w.x1)))


def test_endpoint_matches_the_rational_factorization():
    rng = random.Random(88)
    inner = analyze_inner(mat([[Fraction(3, 2), 1], [Fraction(-1, 3), Fraction(1, 2)]]))
    a, b, c, d = inner.v
    shapes = {"zero first row": 0, "zero first column": 0, "negative lead": 0}
    for trial in range(2000):
        if trial % 4 == 0:  # a zero first row
            n = outer(Vec2(0, rand_rat(rng, 9, 7) or 1), Vec2(rand_rat(rng, 9, 7), rand_rat(rng, 9, 7) or 1))
        elif trial % 4 == 1:  # a zero first column
            n = outer(Vec2(rand_rat(rng, 9, 7), rand_rat(rng, 9, 7) or 1), Vec2(0, rand_rat(rng, 9, 7) or 1))
        else:
            n = rand_rank_one(rng, 9, 7)
        shapes["zero first row"] += n.e00 == n.e01 == 0
        shapes["zero first column"] += n.e00 == n.e10 == 0
        shapes["negative lead"] += next(e for e in n.entries() if e != 0) < 0
        u, w = _old_endpoint_factors(n)
        end = endpoint(n, inner.v)
        assert (end.u, end.w, end.vu) == (u, w, (a * u[0] + b * u[1], c * u[0] + d * u[1]))
        assert is_scalar_multiple(n, outer(Vec2(*end.u), Vec2(*end.w))) is not None
    assert min(shapes.values()) >= 400


def test_witness_check_survives_a_wrong_power(monkeypatch):
    # the exact product check is not an assert: a wrong V^k must raise
    n = mat([[7, -8], [0, 0]])
    v = mat([[2, 0], [1, 1]])
    assert decide_pair(n, v, n) == Witness(3)
    real_pow = pairs.int_mat_pow
    monkeypatch.setattr(pairs, "int_mat_pow", lambda a, k: real_pow(a, k + 1))
    with pytest.raises(InternalError):
        decide_pair(n, v, n)


def test_zero_discriminant_witness_check_needs_no_power():
    # d = 0: with u = (1, 0) and w = (-12k, 1), s_j = 12 (j - k) first
    # vanishes at j = k, far past any power of V that could be multiplied out
    k = 2**35 + 37
    v = mat([[1, 0], [12, 1]])
    n = mat([[-12 * k, 1], [0, 0]])
    start = time.perf_counter()
    assert decide_pair(n, v, n) == Witness(k)
    assert time.perf_counter() - start < 1
    inner = analyze_inner(v)
    assert is_witness(n, inner, n, k)
    assert not is_witness(n, inner, n, k - 1)
    assert not is_witness(n, inner, n, k + 1)


def test_witness_check_matches_powering():
    # the d = 0 shortcut and the powered product agree at every small k,
    # also on a rational V whose canonical form is a multiple of it
    rng = random.Random(80)
    for v in (mat([[1, 1], [0, 1]]), mat([[Fraction(2, 3), Fraction(1, 3)], [0, Fraction(2, 3)]]),
              mat([[3, -1], [1, 1]]), mat([[2, 1], [1, 1]])):
        inner = analyze_inner(v)
        for _ in range(20):
            nl, nr = rand_rank_one(rng, 3, 3), rand_rank_one(rng, 3, 3)
            for k in range(12):
                assert is_witness(nl, inner, nr, k) == (nl * mat_pow(v, k) * nr).is_zero()
