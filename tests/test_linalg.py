"""Exact arithmetic layer: ranks, factorizations, powers, canonical forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mortality2x2 import Mat2, RankError
from mortality2x2.linalg import (
    CharPoly,
    Vec2,
    canon_int_mat,
    char_poly,
    factor_rank_one,
    int_mat_mul,
    int_mat_pow,
    is_scalar_multiple,
    mat_pow,
    outer,
    rank,
    to_int_mat,
)
from helpers import rand_mat

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
nonzero_rationals = rationals.filter(lambda x: x != 0)


def mat(rows):
    return Mat2.from_rows(rows)


def test_rank_examples():
    assert rank(Mat2.zero()) == 0
    assert rank(Mat2.identity()) == 2
    assert rank(mat([[7, -8], [0, 0]])) == 1


def test_rank_matches_determinant():
    rng = random.Random(7)
    for _ in range(300):
        m = rand_mat(rng, 5, 4)
        r = rank(m)
        if m.is_zero():
            assert r == 0
        elif m.det() != 0:
            assert r == 2
        else:
            assert r == 1


def test_is_scalar_multiple_examples():
    assert is_scalar_multiple(-Mat2.identity(), Mat2.identity()) == -1
    assert is_scalar_multiple(mat([[2, 4], [6, 8]]), mat([[1, 2], [3, 4]])) == 2
    assert is_scalar_multiple(Mat2.identity(), mat([[1, 1], [0, 1]])) is None
    assert is_scalar_multiple(Mat2.zero(), Mat2.zero()) is None
    assert is_scalar_multiple(Mat2.zero(), Mat2.identity()) is None
    assert is_scalar_multiple(Mat2.identity(), Mat2.zero()) is None


@given(
    st.tuples(rationals, rationals, rationals, rationals),
    nonzero_rationals,
)
def test_is_scalar_multiple_symmetry(entries, s):
    n = Mat2(*entries)
    m = n.scale(s)
    if n.is_zero():
        assert is_scalar_multiple(m, n) is None
        return
    assert is_scalar_multiple(m, n) == s
    assert is_scalar_multiple(n, m) == 1 / s
    assert m - n.scale(s) == Mat2.zero()


def test_factor_rank_one_examples():
    u, v = factor_rank_one(mat([[7, -8], [0, 0]]))
    assert (u, v) == (Vec2(1, 0), Vec2(7, -8))
    u, v = factor_rank_one(mat([[2, 4], [1, 2]]))
    assert (u, v) == (Vec2(1, Fraction(1, 2)), Vec2(2, 4))
    with pytest.raises(RankError):
        factor_rank_one(Mat2.zero())
    with pytest.raises(RankError):
        factor_rank_one(Mat2.identity())


@given(
    st.tuples(rationals, rationals).filter(lambda t: t != (0, 0)),
    st.tuples(rationals, rationals).filter(lambda t: t != (0, 0)),
)
def test_factor_rank_one_roundtrip(ut, vt):
    m = outer(Vec2(*ut), Vec2(*vt))
    if m.is_zero():
        return
    u, v = factor_rank_one(m)
    assert outer(u, v) == m
    first_nonzero = u.x0 if u.x0 != 0 else u.x1
    assert first_nonzero == 1


def test_char_poly_examples():
    assert char_poly(mat([[2, 0], [1, 1]])) == CharPoly(-3, 2)
    assert char_poly(Mat2.identity()) == CharPoly(-2, 1)
    assert char_poly(mat([[0, -1], [1, 0]])) == CharPoly(0, 1)
    # the seed b^2/c - 2 = l1/l2 + l2/l1, None when c = 0
    assert CharPoly(-3, 2).seed == Fraction(5, 2)  # eigenvalues 2, 1
    assert CharPoly(-2, 1).seed == 2  # repeated eigenvalue, d = 0
    assert CharPoly(0, 1).seed == -2  # eigenvalues +-i, ratio -1
    assert CharPoly(-1, 1).seed == -1  # primitive sixth roots of unity, ratio of order 3
    assert CharPoly(-1, 2).seed == Fraction(-3, 2)  # d < 0, not periodic
    assert CharPoly(1, -2).seed == Fraction(-5, 2)  # eigenvalues 1, -2
    assert CharPoly(Fraction(1, 2), Fraction(-3, 4)).seed == Fraction(-7, 3)
    assert CharPoly(1, 0).seed is None
    assert CharPoly(0, 0).seed is None


def test_cayley_hamilton_random():
    rng = random.Random(1234)
    identity = Mat2.identity()
    for _ in range(1000):
        m = rand_mat(rng, 9, 9)
        cp = char_poly(m)
        residual = m * m + m.scale(cp.b) + identity.scale(cp.c)
        assert residual.is_zero()


def test_mat_pow_examples():
    assert mat_pow(mat([[2, 0], [1, 1]]), 3) == mat([[8, 0], [7, 1]])
    assert mat_pow(mat([[3, -5], [2, 7]]), 0) == Mat2.identity()
    assert mat_pow(mat([[0, -1], [1, 0]]), 2) == -Mat2.identity()
    with pytest.raises(ValueError):
        mat_pow(Mat2.identity(), -1)


def test_mat_pow_matches_repeated_multiplication():
    rng = random.Random(99)
    for _ in range(50):
        m = rand_mat(rng, 3, 3)
        stepwise = Mat2.identity()
        for k in range(41):
            assert mat_pow(m, k) == stepwise
            stepwise = stepwise * m


def test_int_mat_pow_matches_repeated_multiplication():
    rng = random.Random(98)
    for _ in range(50):
        a = tuple(rng.randint(-9, 9) for _ in range(4))
        stepwise = (1, 0, 0, 1)
        for k in range(41):
            assert int_mat_pow(a, k) == stepwise
            stepwise = int_mat_mul(stepwise, a)
    with pytest.raises(ValueError):
        int_mat_pow((1, 0, 0, 1), -1)


def test_int_mat_mul_matches_rational_product():
    rng = random.Random(97)
    for _ in range(200):
        a = tuple(rng.randint(-99, 99) for _ in range(4))
        b = tuple(rng.randint(-99, 99) for _ in range(4))
        assert Mat2(*int_mat_mul(a, b)) == Mat2(*a) * Mat2(*b)


def primitive(m: Mat2) -> tuple[int, int, int, int]:
    """The primitive normal form the oracle keys its search states by."""
    return canon_int_mat(to_int_mat(m))


def test_primitive_normalize_examples():
    assert primitive(mat([[2, 4], [6, 8]])) == (1, 2, 3, 4)
    assert primitive(mat([[Fraction(-1, 2), 0], [0, 0]])) == (1, 0, 0, 0)
    assert primitive(Mat2.identity()) == (1, 0, 0, 1)
    with pytest.raises(ValueError):
        primitive(Mat2.zero())


@given(
    st.tuples(rationals, rationals, rationals, rationals).filter(lambda t: any(t)),
    nonzero_rationals,
)
@settings(max_examples=300)
def test_primitive_normalize_idempotent_and_scale_invariant(entries, t):
    m = Mat2(*entries)
    p = primitive(m)
    assert all(isinstance(e, int) for e in p)
    assert is_scalar_multiple(m, Mat2(*p)) is not None
    # primitive output is its own normal form
    assert primitive(Mat2(*p)) == p
    # every nonzero scaling shares the representative
    assert primitive(m.scale(t)) == p
