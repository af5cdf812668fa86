"""Spectral layer: quadratic-field numbers, the cosine-equation solver, and
the minimal-order decider."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mortality2x2 import Mat2, spectral
from mortality2x2.linalg import is_scalar_multiple, mat_pow
from mortality2x2.spectral import (
    Empty,
    Finite,
    Periodic,
    PeriodResult,
    QuadNum,
    _cheb_index,
    _cheb_ladder,
    cheb_solve,
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


def test_cheb_ladder_matches_track():
    rng = random.Random(60)
    for p in _ladder_points(rng):
        tp = 2 * p
        track = doubled_cosine_track(p, 61)
        for n in range(61):
            num, num_next, den = _cheb_ladder(tp.numerator, tp.denominator, n)
            assert Fraction(num, den) == track[n], (p, n)
            assert Fraction(num_next, den * tp.denominator) == track[n + 1], (p, n)
            assert den == tp.denominator**n


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
    n = 10**5
    for a in (3, -4, 7):
        t_n, t_next, _ = _cheb_ladder(a, 1, n)
        assert _cheb_index(Fraction(a), (t_n, 1)) == n
        assert _cheb_index(Fraction(a), (t_next, 1)) == n + 1
        for t in (t_n - 1, t_n + 1, -t_n):
            assert _cheb_index(Fraction(a), (t, 1)) is None


def test_cheb_index_runs_one_ladder_at_an_integer_seed(monkeypatch):
    calls = []
    real_ladder = spectral._cheb_ladder

    def counted(*args):
        calls.append(args)
        return real_ladder(*args)

    monkeypatch.setattr(spectral, "_cheb_ladder", counted)
    for a in INTEGER_SEEDS:
        for n in (0, 1, 2, 3, 17, 64, 255, 1000, 4097):
            t_n = real_ladder(a, 1, n)[0]
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


# ------------------------------------------------------- QuadNum / quad_pow


def test_quad_pow_examples():
    d = Fraction(-4)
    one = QuadNum(1, 0, d)
    assert quad_pow(one, 17) == one
    i = QuadNum(0, 1, Fraction(-1))
    assert quad_pow(i, 2) == QuadNum(-1, 0, Fraction(-1))
    rho = QuadNum(Fraction(-3, 4), Fraction(-1, 4), Fraction(-7))
    target = QuadNum.one(Fraction(-7))
    for k in range(1, 51):
        assert quad_pow(rho, k) != target


def test_quad_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        quad_pow(QuadNum(1, 1, 5), -2)


def test_quadnum_mismatched_radicands_rejected():
    with pytest.raises(ValueError):
        QuadNum(1, 1, 5) * QuadNum(1, 1, 7)
    with pytest.raises(ValueError):
        QuadNum(1, 1, 5) + QuadNum(1, 1, 7)


small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=5)


@given(small_rationals, small_rationals, small_rationals, small_rationals, small_rationals)
@settings(max_examples=200)
def test_quadnum_norm_multiplicative(a, b, c, d, rad):
    z = QuadNum(a, b, rad)
    w = QuadNum(c, d, rad)
    assert (z * w).norm() == z.norm() * w.norm()
    assert z.conjugate().norm() == z.norm()


def test_quadnum_pow_matches_repeated_multiplication():
    z = QuadNum(Fraction(2, 3), Fraction(-1, 2), Fraction(5))
    acc = QuadNum.one(Fraction(5))
    for k in range(10):
        assert quad_pow(z, k) == acc
        acc = acc * z
