"""Pair engine: the Moebius iteration, the exponent solver with its
complex-eigenvalue entry point, and the pair decision with its certificates."""

import random
import time
from collections import Counter
from fractions import Fraction
from math import isqrt, lcm

import pytest

from mortality2x2 import EntryRange, InternalError, Mat2, RankError
from mortality2x2.oracle import random_instance
from mortality2x2.linalg import (
    CharPoly, Vec2, canon_int_mat, char_poly, int_form, int_mat_pow, is_scalar_multiple, mat_pow,
    outer,
)
from mortality2x2.pairs import (
    NoExponent,
    RefusalReason,
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
from mortality2x2.spectral import power_similar_identity, quad_pow
from mortality2x2 import pairs
from helpers import (
    REGIMES,
    plant_pair,
    r_value,
    rand_invertible_int,
    rand_mat,
    rand_nonperiodic_invertible,
    rand_rank_one,
    rand_rat,
    scan_pair_zeros,
)


def mat(rows):
    return Mat2.from_rows(rows)


def _prepared(n_left, v, n_right):
    inner = analyze_inner(int_form(v))
    return inner, endpoint(int_form(n_left), inner.v), endpoint(int_form(n_right), inner.v)


def _track(b, c, s0, s1, count):
    """s_0 .. s_{count-1} of s_{k+2} = -b s_{k+1} - c s_k, independent of the engine's scan."""
    terms = [s0, s1]
    while len(terms) < count:
        terms.append(-b * terms[-1] - c * terms[-2])
    return terms[:count]


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
    # a Fraction-typed b and c still give an int exponent, in both solves
    for cp, x, k in ((CharPoly(Fraction(-2), Fraction(1)), Fraction(-1, 2), 2),
                     (CharPoly(Fraction(-3), Fraction(2)), Fraction(-6, 7), 3)):
        found = solve_r_eq_x(cp, x)
        assert found == k and type(found) is int


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
        zeros = [k for k, s in enumerate(_track(b, c, s0, s1, 65)) if s == 0 and k >= 1]
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
    s0, s1 = pair_problem(_prepared(n, v, n))
    assert (s0, s1) == (7, 6)
    assert (type(s0), type(s1)) == (int, int)
    assert Fraction(-s1, s0) == Fraction(-6, 7)
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
        prepared = _prepared(nl, v, nr)
        cp = prepared[0].char
        zeros = scan_pair_zeros(nl, v, nr, 30)
        for k, s in enumerate(_track(cp.b, cp.c, *pair_problem(prepared), 31)):
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
        s0, s1 = pair_problem(_prepared(n, v, n))
        assert Fraction(-s1, s0) in (Fraction(-1), Fraction(-2))
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


def _rational_endpoint_factors(n):
    """u and w by the rational route: u = (1, t) for the ratio t of N's rows,
    or (0, 1) when its first row is zero, cleared of its denominator; w the
    first nonzero row, cleared of its denominators and made canonical."""
    if n.e00 or n.e01:
        t = n.e10 / n.e00 if n.e00 else n.e11 / n.e01
        u, w = (t.denominator, t.numerator), (n.e00, n.e01)
    else:
        u, w = (0, 1), (n.e10, n.e11)
    s = lcm(w[0].denominator, w[1].denominator)
    return u, canon_int_mat((int(s * w[0]), int(s * w[1])))


def test_endpoint_matches_the_rational_factorization():
    rng = random.Random(88)
    inner = analyze_inner(int_form(mat([[Fraction(3, 2), 1], [Fraction(-1, 3), Fraction(1, 2)]])))
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
        u, w = _rational_endpoint_factors(n)
        end = endpoint(int_form(n), inner.v)
        assert (end.u, end.w, end.vu) == (u, w, (a * u[0] + b * u[1], c * u[0] + d * u[1]))
        assert is_scalar_multiple(n, outer(Vec2(*end.u), Vec2(*end.w))) is not None
    assert min(shapes.values()) >= 400


# Integer V whose least scalar power is V^m, with m = 1, 2, 3, 4 and 6.
PERIOD_BASES = (
    ((1, 0, 0, 1), 1),
    ((0, -1, 1, 0), 2),
    ((1, 2, 3, -1), 2),  # real eigenvalues of opposite sign, negative determinant
    ((0, -1, 1, -1), 3),
    ((1, -1, 1, 1), 4),
    ((2, -1, 1, 1), 6),
)


def test_inner_analysis_matches_the_rational_char_poly_and_period():
    # V's analysis, read off its integer form, agrees with the rational
    # route on random rational V, planted periodic V and copies scaled by
    # 1/3; b, c and the discriminant stay ints
    rng = random.Random(111)
    seen = {"orders": set(), "negative det": 0}
    for trial in range(1500):
        if trial % 3:
            v = mat([[rand_rat(rng, 9, 6) for _ in range(2)] for _ in range(2)])
            if v.det() == 0:
                continue
        else:
            base, _ = PERIOD_BASES[trial // 3 % len(PERIOD_BASES)]
            p = rand_invertible_int(rng, -3, 3)
            adj = Mat2(p.e11, -p.e01, -p.e10, p.e00)
            v = (p * Mat2(*base) * adj).scale(rand_rat(rng, 5, 4) or 1)
        for w in (v, v.scale(Fraction(1, 3))):
            inner = analyze_inner(int_form(w))
            cp = inner.char
            assert cp == char_poly(Mat2(*inner.v))
            assert (type(cp.b), type(cp.c), type(cp.discriminant)) == (int, int, int)
            period = power_similar_identity(w)
            assert inner.order == (period.order if period else None)
            seen["orders"].add(inner.order)
        seen["negative det"] += v.det() < 0
    assert seen["orders"] == {None, 1, 2, 3, 4, 6}
    assert seen["negative det"] >= 300
    assert [analyze_inner(int_form(Mat2(*base))).order for base, _ in PERIOD_BASES] == [
        order for _, order in PERIOD_BASES
    ]


def test_periodic_scan_names_the_first_zero_or_refuses():
    # V of each period m in PERIOD_BASES, conjugated by random rational
    # matrices and scaled by 1/3 and -1: the bare and the prepared
    # decide_pair give the first zero of an exact scan of two periods, or
    # refuse when there is none; half the pairs are planted to vanish at a
    # k in 0 .. m-1, so every k the scan can name is reached
    rng = random.Random(1213)
    seen = set()
    for trial in range(900):
        base, order = PERIOD_BASES[trial % len(PERIOD_BASES)]
        p = rand_mat(rng, 4, 3)
        if p.det() == 0:
            continue
        v = p * Mat2(*base) * Mat2(p.e11, -p.e01, -p.e10, p.e00)
        u = Vec2(rand_rat(rng, 4, 3), rand_rat(rng, 4, 3) or 1)
        row = Vec2(rand_rat(rng, 4, 3), rand_rat(rng, 4, 3) or 1)
        nr = outer(u, Vec2(rand_rat(rng, 4, 3) or 1, rand_rat(rng, 4, 3)))
        if rng.random() < 0.5:
            row = mat_pow(v, rng.randrange(order)).mul_vec(u).perp()
        nl = outer(Vec2(rand_rat(rng, 4, 3) or 1, rand_rat(rng, 4, 3)), row)
        zeros = scan_pair_zeros(nl, v, nr, 12)
        expected = Witness(min(zeros)) if zeros else NoExponent(RefusalReason.PERIODIC_SCAN_EXHAUSTED)
        for w in (v, v.scale(Fraction(1, 3)), v.scale(-1)):
            assert decide_pair(nl, w, nr) == expected
            assert decide_pair(nl, w, nr, _prepared(nl, w, nr)) == expected
        seen.add((order, getattr(expected, "k", None)))
    for _, order in PERIOD_BASES:
        assert {(order, k) for k in [None, *range(order)]} <= seen


def test_witness_check_survives_a_wrong_power(monkeypatch):
    # the exact witness check is not an assert: the Cayley-Hamilton
    # coefficients of V^(k+1) in place of V^k must raise, off d = 0 and on
    # its closed form alike
    cases = (
        (mat([[7, -8], [0, 0]]), mat([[2, 0], [1, 1]]), 3),
        (mat([[-60, 1], [0, 0]]), mat([[1, 0], [12, 1]]), 5),
    )
    for n, v, k in cases:
        assert decide_pair(n, v, n) == Witness(k)
    real_pow = pairs.quad_pow
    monkeypatch.setattr(pairs, "quad_pow", lambda b, c, k: real_pow(b, c, k + 1))
    for n, v, _ in cases:
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
    prepared = _prepared(n, v, n)
    assert is_witness(prepared, k)
    assert not is_witness(prepared, k - 1)
    assert not is_witness(prepared, k + 1)


# Integer V in every regime of the witness check, by name: the periodic
# orders, d = 0, d < 0, and square and non-square d > 0.
WITNESS_REGIMES = {
    "order 2": (0, -1, 1, 0),
    "order 3": (0, -1, 1, -1),
    "order 4": (1, -1, 1, 1),
    "order 6": (2, -1, 1, 1),
    "d = 0": (1, 1, 0, 1),
    "d < 0": (1, -2, 1, 0),
    "square d > 0": (2, 0, 1, 1),
    "non-square d > 0": (2, 1, 1, 1),
}


def _witness_regime(inner):
    return f"order {inner.order}" if inner.order is not None else _regime(inner)


def test_quad_pow_gives_the_integer_power():
    # V^k is a nonzero multiple of alpha V + beta I for every 0 <= k <= 40:
    # equal off d = 0, proportional on its closed form; a periodic V of
    # order m has alpha_m = 0 (V^m scalar) and alpha_j != 0 for 0 < j < m
    orders = set()
    for base in WITNESS_REGIMES.values():
        inner = analyze_inner(int_form(Mat2(*base)))
        v = inner.v
        for k in range(41):
            alpha, beta = quad_pow(inner.char.b, inner.char.c, k)
            combo = (alpha * v[0] + beta, alpha * v[1], alpha * v[2], alpha * v[3] + beta)
            power = int_mat_pow(v, k)
            assert any(combo)
            if inner.char.discriminant:
                assert combo == power
            else:
                assert all(power[i] * combo[j] == power[j] * combo[i] for i in range(4) for j in range(4))
        if inner.order is not None:
            orders.add(inner.order)
            alphas = [quad_pow(inner.char.b, inner.char.c, j)[0] for j in range(1, inner.order + 1)]
            assert alphas[-1] == 0 and all(alphas[:-1])
    assert orders == {2, 3, 4, 6}


def test_witness_check_matches_powering():
    # for k <= 12, on left != right endpoints, the Cayley-Hamilton check
    # equals the zero test of the rational product N_l V^k N_r in every
    # regime, on integer V and on rational V (conjugated by a random
    # rational matrix and scaled); half the left rows are planted to vanish
    # at a k <= 12, so both answers are reached in every regime
    rng = random.Random(80)
    seen = Counter()
    for name, base in WITNESS_REGIMES.items():
        for trial in range(24):
            if trial % 2:
                p = rand_mat(rng, 4, 3)
                if p.det() == 0:
                    continue
                v = (p * Mat2(*base) * Mat2(p.e11, -p.e01, -p.e10, p.e00)).scale(rand_rat(rng, 5, 4) or 1)
            else:
                v = Mat2(*base)
            nr = rand_rank_one(rng, 4, 3)
            u = Vec2(nr.e00, nr.e10) if nr.e00 or nr.e10 else Vec2(nr.e01, nr.e11)
            row = Vec2(rand_rat(rng, 4, 3), rand_rat(rng, 4, 3) or 1)
            if trial % 4 < 2:
                row = mat_pow(v, rng.randrange(13)).mul_vec(u).perp()
            nl = outer(Vec2(rand_rat(rng, 4, 3) or 1, rand_rat(rng, 4, 3)), row)
            if nl == nr:
                continue
            prepared = _prepared(nl, v, nr)
            assert _witness_regime(prepared[0]) == name
            rational = "integer V" if trial % 2 == 0 else "rational V"
            for k in range(13):
                zero = (nl * mat_pow(v, k) * nr).is_zero()
                assert is_witness(prepared, k) == zero
                seen[name, rational, zero] += 1
    for name in WITNESS_REGIMES:
        for rational in ("integer V", "rational V"):
            for zero in (True, False):
                assert seen[name, rational, zero] >= 3, (name, rational, zero)


# ------------------------------------------------------- the integer pair path


def _regime(inner):
    """The regime of V's canonical integer form, with d split by sign and squareness."""
    d = inner.char.discriminant
    if inner.order is not None:
        return "periodic"
    if d == 0:
        return "d = 0"
    if d < 0:
        return "d < 0"
    return "square d > 0" if isqrt(d) ** 2 == d else "non-square d > 0"


def _reference_pair(prepared):
    """The pair verdict from the public `solve_r_eq_x` on x = Fraction(-s1, s0)
    and a scan of one period, with freshly built refusals."""
    inner = prepared[0]
    s0, s1 = pair_problem(prepared)
    if s0 == 0:
        return Witness(0)
    if inner.order is not None:
        zeros = [k for k, s in enumerate(_track(inner.char.b, inner.char.c, s0, s1, inner.order)) if s == 0]
        return Witness(zeros[0]) if zeros else NoExponent(RefusalReason.PERIODIC_SCAN_EXHAUSTED)
    k = solve_r_eq_x(inner.char, Fraction(-s1, s0))
    if k is not None:
        return Witness(k)
    if inner.char.discriminant == 0:
        return NoExponent(RefusalReason.SINGLE_CANDIDATE_FAILED)
    return NoExponent(RefusalReason.RATIO_EQUATION_UNSATISFIABLE)


def test_decide_pair_on_ints_matches_the_public_solver():
    # fuzz draws with one invertible V at two entry ranges, V as drawn,
    # negated and scaled by 1/3: decide_pair, which reduces x = -s1/s0 with
    # one gcd and returns shared refusals, agrees with the public solver on
    # every pair of rank-1 members, over both signs of s0 in every regime
    shared = {r.reason: r for r in (pairs._SCAN_EXHAUSTED, pairs._CANDIDATE_FAILED, pairs._RATIO_UNSATISFIABLE)}
    assert all(refusal == NoExponent(reason) for reason, refusal in shared.items())
    assert set(shared) == set(RefusalReason)
    seen = Counter()
    for entry_range, seed in ((EntryRange(3, 3), 1907), (EntryRange(7, 5), 1908)):
        rng = random.Random(seed)
        for _ in range(200):
            mats = random_instance(rng, entry_range, invertible_probability=1.0).matrices
            v = next(m for m in mats if m.det() != 0)
            ends = [m for m in mats if m.det() == 0 and not m.is_zero()]
            for w in (v, v.scale(-1), v.scale(Fraction(1, 3))):
                for nl in ends:
                    for nr in ends:
                        prepared = _prepared(nl, w, nr)
                        expected = _reference_pair(prepared)
                        verdict = decide_pair(nl, w, nr)
                        assert verdict == expected
                        assert decide_pair(nl, w, nr, prepared) == expected
                        if isinstance(verdict, NoExponent):
                            assert verdict is shared[verdict.reason]
                        s0 = pair_problem(prepared)[0]
                        regime = _regime(prepared[0])
                        seen["pairs"] += 1
                        seen[regime, "s0 < 0" if s0 < 0 else "s0 > 0" if s0 else "s0 = 0"] += 1
                        seen[regime, type(verdict).__name__ if s0 else "k = 0"] += 1
    assert seen["pairs"] >= 3000
    for regime in ("periodic", "d = 0", "d < 0", "square d > 0", "non-square d > 0"):
        for case in ("s0 < 0", "s0 > 0", "s0 = 0", "Witness", "NoExponent"):
            assert seen[regime, case] >= 5, (regime, case)


def test_r_term_matches_the_moebius_iteration():
    # the one-Fraction doubling ladder gives the iterated r_k for every
    # k <= 200, on random non-periodic V of both signs of d
    rng = random.Random(1909)
    signs = Counter()
    for _ in range(48):
        char = analyze_inner(int_form(rand_nonperiodic_invertible(rng))).char
        signs[(char.discriminant > 0) - (char.discriminant < 0)] += 1
        for state in iter_recurrence(char):
            if state.k > 200:
                break
            assert pairs._r_term(char.b, char.c, state.k) == state.r
    assert signs[1] >= 10 and signs[-1] >= 10
