"""Spectral layer: the cosine-equation solver, the minimal-order decider and
the Cayley-Hamilton power `quad_pow` (checked against integer powers of V
in every regime with the witness check, in test_pairs)."""

import random
from fractions import Fraction

import pytest

from mortality2x2 import InternalError, Mat2, spectral
from mortality2x2.linalg import int_mat_mul, int_mat_pow, is_scalar_multiple, mat_pow
from mortality2x2.spectral import (
    Empty,
    Finite,
    Periodic,
    PeriodResult,
    _cheb_index,
    cheb_solve,
    period_order,
    power_similar_identity,
    quad_pow,
)
from helpers import answer_set, brute_force_cheb, doubled_cosine_track, rand_invertible_int, rand_rat


def mat(rows):
    return Mat2.from_rows(rows)


def clamp(x: Fraction) -> Fraction:
    return max(Fraction(-1), min(Fraction(1), x))


# ---------------------------------------------------------------- cheb_solve


def test_cheb_solve_examples():
    assert cheb_solve(Fraction(1), Fraction(1)) == Periodic(1, (0,))
    assert cheb_solve(Fraction(1, 2), Fraction(-1, 2)) == Periodic(6, (2, 4))
    assert cheb_solve(Fraction(1, 3), Fraction(-7, 9)) == Finite((2,))
    assert cheb_solve(Fraction(1, 3), Fraction(1, 2)) == Empty()
    # t_n = 2 once per minimal period for each integer 2p in [-2, 2]
    for p, period in ((-1, 2), (Fraction(-1, 2), 3), (0, 4), (Fraction(1, 2), 6), (1, 1)):
        assert cheb_solve(Fraction(p), Fraction(1)) == Periodic(period, (0,))


def test_cheb_solve_rejects_out_of_range():
    with pytest.raises(ValueError):
        cheb_solve(Fraction(3, 2), Fraction(0))
    with pytest.raises(ValueError):
        cheb_solve(Fraction(0), Fraction(-2))


@pytest.mark.parametrize("p, q", [(0.5, Fraction(1)), (Fraction(1, 2), 0.5), (0.1, 1)])
def test_cheb_solve_takes_only_ints_and_fractions(p, q):
    # 0.1 would otherwise be read as its binary fraction, not 1/10
    with pytest.raises(TypeError, match="int or a Fraction"):
        cheb_solve(p, q)
    assert cheb_solve(0, 1) == cheb_solve(Fraction(0), Fraction(1))


def test_cheb_solve_periodic_cases_match_bruteforce():
    for p in (Fraction(1), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(-1, 2)):
        for qn in range(-4, 5):
            q = Fraction(qn, 4)
            assert answer_set(cheb_solve(p, q), 60) == brute_force_cheb(p, q, 60)


def test_cheb_solve_completeness_vs_bruteforce():
    rng = random.Random(20240817)
    for _ in range(1000):
        p = clamp(rand_rat(rng, 8, 8))
        q = clamp(rand_rat(rng, 8, 8))
        assert answer_set(cheb_solve(p, q), 50) == brute_force_cheb(p, q, 50), (p, q)


def test_cheb_solve_soundness_of_reported_solutions():
    rng = random.Random(555)
    for _ in range(300):
        p = clamp(rand_rat(rng, 8, 8))
        q = clamp(rand_rat(rng, 8, 8))
        answer = cheb_solve(p, q)
        track = doubled_cosine_track(p, 30)
        for n in sorted(answer_set(answer, 30)):
            assert track[n] == 2 * q


def test_denominator_growth_law():
    rng = random.Random(909)
    seen = 0
    while seen < 200:
        p = clamp(rand_rat(rng, 8, 8))
        m = (2 * p).denominator
        if m == 1:
            continue
        seen += 1
        track = doubled_cosine_track(p, 20)
        for n in range(1, 21):
            assert track[n].denominator == m**n


def _ladder_points(rng):
    """Values of p inside and outside [-1, 1], with integer and fractional 2p."""
    inside = [clamp(rand_rat(rng, 8, 8)) for _ in range(40)]
    outside = [rand_rat(rng, 40, 7) for _ in range(60)]
    outside = [p for p in outside if abs(p) > 1]
    integral = [Fraction(n, 2) for n in (-7, -5, -4, -3, 3, 4, 5, 9)]
    return inside + outside + integral


def test_quad_pow_gives_the_doubled_cosine_track():
    # with 2p = a/m in lowest terms, x^2 - a x + m^2 has the track as its
    # scaled trace sequence: (alpha, beta) = quad_pow(-a, m^2, n) gives
    # m^n t_n = a alpha + 2 beta and m^(n+1) t_(n+1) = (a alpha + beta) a - 2 m^2 alpha
    rng = random.Random(60)
    for p in _ladder_points(rng):
        tp = 2 * p
        if abs(tp) == 2:
            continue  # d = 0: quad_pow gives only a multiple of the power
        a, m = tp.numerator, tp.denominator
        track = doubled_cosine_track(p, 61)
        for n in range(61):
            alpha, beta = quad_pow(-a, m * m, n)
            assert Fraction(a * alpha + 2 * beta, m**n) == track[n], (p, n)
            assert Fraction((a * alpha + beta) * a - 2 * m * m * alpha, m ** (n + 1)) == track[n + 1], (p, n)


def test_cheb_index_outside_unit_interval():
    # |p| > 1: the track never repeats, so each value has at most one index
    rng = random.Random(61)
    for p in _ladder_points(rng):
        if abs(p) <= 1:
            continue
        track = doubled_cosine_track(p, 40)
        for n, t in enumerate(track):
            assert _cheb_index(2 * p, (t.numerator, t.denominator)) == n
        for _ in range(5):
            t = rand_rat(rng, 50, 9) + rng.choice(track)
            expected = track.index(t) if t in track else None
            assert _cheb_index(2 * p, (t.numerator, t.denominator)) == expected, (p, t)


def test_cheb_index_confirms_a_fractional_seed_by_its_numerator():
    # seed a/m with m in 2..7: den(t_n) = m^n is already proved when the
    # ladder runs, so the numerator alone confirms; every t_n with n <= 200
    # is accepted, and a numerator off by one over the same m^n refused
    # unless the reduced value is itself on the track
    seen = 0
    for m in range(2, 8):
        for a in (1, -1, m + 1, -(2 * m + 1), 5 * m - 1, 13 * m + 1):
            tp = Fraction(a, m)
            assert tp.denominator == m
            track = doubled_cosine_track(tp / 2, 200)
            index = {t: n for n, t in enumerate(track)}
            for n, t in enumerate(track):
                assert t.denominator == m**n
                assert _cheb_index(tp, (t.numerator, t.denominator)) == n, (tp, n)
                for num in (t.numerator - 1, t.numerator + 1):
                    off = Fraction(num, m**n)
                    seen += off.denominator == m**n
                    assert _cheb_index(tp, (off.numerator, off.denominator)) == index.get(off), (tp, n, num)
    assert seen >= 2000


INTEGER_SEEDS = (3, -3, 4, -4, 5, 7, -6, 11, 100, -250)


def test_cheb_index_at_integer_seeds_matches_the_track():
    # integer seed: the gallop and the bit-length estimate land on the one
    # index of t_n, and on none for t_n +- 1 (the track never repeats)
    for a in INTEGER_SEEDS:
        track = doubled_cosine_track(Fraction(a, 2), 301)
        for n in range(301):
            assert _cheb_index(Fraction(a), (track[n].numerator, 1)) == n, (a, n)
            for t in (track[n] - 1, track[n] + 1):
                expected = track.index(t) if t in track else None
                assert _cheb_index(Fraction(a), (t.numerator, 1)) == expected, (a, n)


def test_cheb_index_at_integer_seeds_deep():
    # t_n is the trace of [[a, -1], [1, 0]]^n, whose characteristic
    # polynomial is x^2 - a x + 1: an integer power independent of quad_pow
    n = 10**5
    for a in (3, -4, 7):
        power = int_mat_pow((a, -1, 1, 0), n)
        after = int_mat_mul(power, (a, -1, 1, 0))
        t_n, t_next = power[0] + power[3], after[0] + after[3]
        assert _cheb_index(Fraction(a), (t_n, 1)) == n
        assert _cheb_index(Fraction(a), (t_next, 1)) == n + 1
        for t in (t_n - 1, t_n + 1, -t_n):
            assert _cheb_index(Fraction(a), (t, 1)) is None


def test_cheb_index_runs_one_ladder_at_an_integer_seed(monkeypatch):
    calls = []
    real_pow = spectral.quad_pow

    def counted(*args):
        calls.append(args)
        return real_pow(*args)

    monkeypatch.setattr(spectral, "quad_pow", counted)
    for a in INTEGER_SEEDS:
        for n in (0, 1, 2, 3, 17, 64, 255, 1000, 4097):
            alpha, beta = real_pow(-a, 1, n)
            t_n = a * alpha + 2 * beta
            for t in (t_n - 1, t_n, t_n + 1, 10 * t_n):
                calls.clear()
                _cheb_index(Fraction(a), (t, 1))
                assert len(calls) <= 1, (a, n, t)


# -------------------------------------------------- power_similar_identity


def test_power_similar_identity_examples():
    assert power_similar_identity(mat([[3, 0], [0, 3]])) == PeriodResult(1, Fraction(3))
    assert power_similar_identity(mat([[0, -1], [1, 0]])) == PeriodResult(2, Fraction(-1))
    assert power_similar_identity(mat([[1, -1], [1, 0]])) == PeriodResult(3, Fraction(-1))
    assert power_similar_identity(mat([[1, -1], [1, 1]])) == PeriodResult(4, Fraction(-4))
    assert power_similar_identity(mat([[2, -1], [1, 1]])) == PeriodResult(6, Fraction(-27))
    assert power_similar_identity(mat([[1, 1], [0, 1]])) is None
    assert power_similar_identity(mat([[1, -2], [1, 0]])) is None


def test_power_similar_identity_rejects_singular():
    with pytest.raises(ValueError):
        power_similar_identity(mat([[1, 0], [0, 0]]))


def test_power_similar_identity_real_ratio_branch():
    # positive discriminant: only trace zero gives a (second) power similar to I
    assert power_similar_identity(mat([[0, 2], [1, 0]])) == PeriodResult(2, Fraction(2))
    assert power_similar_identity(mat([[2, 0], [1, 1]])) is None


def test_power_similar_identity_minimality_and_order_range():
    rng = random.Random(4242)
    identity = Mat2.identity()
    found_orders = set()
    for _ in range(2000):
        a = rand_invertible_int(rng, -5, 5)
        result = power_similar_identity(a)
        if result is None:
            continue
        found_orders.add(result.order)
        assert result.order in {1, 2, 3, 4, 6}
        assert mat_pow(a, result.order) == identity.scale(result.scalar)
        assert result.scalar != 0
        for j in range(1, result.order):
            assert is_scalar_multiple(mat_pow(a, j), identity) is None
    assert {1, 2} <= found_orders  # scalars and trace-zero matrices are common


def test_period_order_on_integer_forms():
    assert period_order((5, 0, 0, 5)) == 1
    assert period_order((0, 2, 1, 0)) == 2
    assert period_order((2, -1, 1, 1)) == 6
    assert period_order((2, 1, 1, 1)) is None  # c does not divide b^2
    assert period_order((1, 1, 0, 1)) is None  # seed 2, d = 0
    for zero_det in ((0, 0, 0, 0), (1, 2, 2, 4)):
        with pytest.raises(ValueError):
            period_order(zero_det)


def test_period_order_survives_a_wrong_power(monkeypatch):
    # the confirming power is not an assert: a non-scalar power must raise
    real_pow = spectral.quad_pow
    monkeypatch.setattr(spectral, "quad_pow", lambda b, c, k: real_pow(b, c, k + 1))
    assert period_order((3, 0, 0, 3)) == 1  # needs no power
    with pytest.raises(InternalError):
        period_order((1, -1, 1, 1))


# ------------------------------------------------------------------ quad_pow


def test_quad_pow_examples():
    # the quarter turn x^2 + 1: V^2 = -I and V^17 = V
    assert quad_pow(0, 1, 0) == (0, 1)
    assert quad_pow(0, 1, 2) == (0, -1)
    assert quad_pow(0, 1, 17) == (1, 0)
    # x^2 - x + 2 (d = -7): its eigenvalue ratio has norm 1 but is no root
    # of unity, so no power of V is scalar
    for k in range(1, 51):
        assert quad_pow(-1, 2, k)[0] != 0
    # d = 0 closed form: V = [[1, 0], [12, 1]] has V^k = k V - (k - 1) I,
    # returned as twice that
    assert quad_pow(-2, 1, 10**30) == (2 * 10**30, -2 * (10**30 - 1))


def test_quad_pow_rejects_negative_exponent():
    for b, c in ((0, 1), (-1, 2), (-2, 1)):
        with pytest.raises(ValueError):
            quad_pow(b, c, -1)
