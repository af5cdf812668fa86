"""Exact arithmetic layer: the rank-1 factorization, powers, canonical forms."""

import dataclasses
import pickle
import random
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mortality2x2 import Mat2, RankError
from mortality2x2.linalg import (
    CharPoly,
    Vec2,
    _rat,
    canon_int_mat,
    char_poly,
    int_form,
    int_mat_mul,
    int_mat_pow,
    is_scalar_multiple,
    mat_pow,
    outer,
    rank_one_factors,
    to_int_mat,
)
from helpers import rand_mat

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
nonzero_rationals = rationals.filter(lambda x: x != 0)


def mat(rows):
    return Mat2.from_rows(rows)


def test_value_classes_set_each_field_once_without_post_init():
    for cls in (Mat2, Vec2, CharPoly):
        assert not hasattr(cls, "__post_init__")
        assert "__init__" in vars(cls) and "__slots__" in vars(cls)


def test_mat2_keeps_its_dataclass_behaviour():
    m = Mat2(1, Fraction(1, 2), -3, 0)
    # int entries are stored as Fractions, so int and Fraction spellings agree
    assert all(type(e) is Fraction for e in m.entries())
    assert m == Mat2(Fraction(1), Fraction(2, 4), Fraction(-3), Fraction(0))
    assert hash(m) == hash(Mat2(Fraction(1), Fraction(2, 4), Fraction(-3), Fraction(0)))
    assert Mat2(e00=1, e01=Fraction(1, 2), e10=-3, e11=0) == m
    assert Mat2(1, e01=Fraction(1, 2), e11=0, e10=-3) == m
    assert dataclasses.replace(m, e11=4) == Mat2(1, Fraction(1, 2), -3, 4)
    assert type(dataclasses.replace(m, e11=4).e11) is Fraction
    assert repr(m) == "Mat2(e00=Fraction(1, 1), e01=Fraction(1, 2), e10=Fraction(-3, 1), e11=Fraction(0, 1))"
    assert pickle.loads(pickle.dumps(m)) == m
    assert m != Mat2(1, Fraction(1, 2), -3, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.e00 = Fraction(2)
    with pytest.raises(TypeError):
        Mat2(1, 2, 3)


def test_vec2_keeps_its_dataclass_behaviour():
    v = Vec2(2, Fraction(-1, 3))
    assert (type(v.x0), type(v.x1)) == (Fraction, Fraction)
    assert v == Vec2(x0=Fraction(2), x1=Fraction(-1, 3))
    assert hash(v) == hash(Vec2(Fraction(2), Fraction(-1, 3)))
    assert dataclasses.replace(v, x0=0) == Vec2(0, Fraction(-1, 3))
    assert repr(v) == "Vec2(x0=Fraction(2, 1), x1=Fraction(-1, 3))"
    assert pickle.loads(pickle.dumps(v)) == v


def test_char_poly_keeps_its_dataclass_behaviour():
    cp = CharPoly(-3, 2)
    # both int: kept as ints; otherwise both become Fractions
    assert (type(cp.b), type(cp.c)) == (int, int)
    mixed = CharPoly(Fraction(-3), 2)
    assert (type(mixed.b), type(mixed.c)) == (Fraction, Fraction)
    assert cp == mixed and hash(cp) == hash(mixed)
    assert CharPoly(b=-3, c=2) == cp
    # the derived invariants take no part in equality or repr, and are
    # derived again by replace and kept by pickle
    assert repr(cp) == "CharPoly(b=-3, c=2)"
    assert (cp.discriminant, cp.seed) == (1, Fraction(5, 2))
    other = dataclasses.replace(cp, c=5)
    assert other == CharPoly(-3, 5)
    assert (other.discriminant, other.seed) == (-11, Fraction(-1, 5))
    back = pickle.loads(pickle.dumps(cp))
    assert back == cp and (back.discriminant, back.seed) == (1, Fraction(5, 2))
    assert CharPoly(1, 0).seed is None


@pytest.mark.parametrize("bad", [0.1, 1.0, Decimal("0.1"), "1/2", complex(1, 0), None])
def test_only_ints_and_fractions_are_rationals(bad):
    # a float would become its binary fraction: 0.1 is not 1/10
    one = Fraction(1)
    builds = [
        lambda: _rat(bad),
        lambda: Mat2(bad, 1, 1, 1),
        lambda: Mat2(1, 1, 1, bad),
        lambda: Vec2(1, bad),
        lambda: CharPoly(bad, 1),
        lambda: CharPoly(1, bad),
        lambda: Mat2.identity().scale(bad),
        lambda: Vec2(1, 1).scale(bad),
        lambda: Mat2.from_rows([[1, bad], [0, 1]]),
    ]
    for build in builds:
        with pytest.raises(TypeError, match="int or a Fraction"):
            build()
    assert _rat(3) == 3 and type(_rat(3)) is Fraction
    assert _rat(one) is one
    assert Mat2(True, 0, 0, 1) == Mat2.identity()  # bool is an int


def test_subclasses_of_int_and_fraction_are_rationals():
    # past the exact-type fast path, isinstance still takes subclasses as before
    class Count(int):
        pass

    class Ratio(Fraction):
        pass

    half = Ratio(1, 2)
    assert _rat(half) is half
    for x in (True, False, Count(5)):
        assert type(_rat(x)) is Fraction and _rat(x) == int(x)
    assert Mat2(Count(2), half, False, 1).entries() == (2, Fraction(1, 2), 0, 1)


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
    # the one rank-1 factorization, on a member's integer form
    assert rank_one_factors(int_form(mat([[7, -8], [0, 0]]))) == ((1, 0), (7, -8))
    assert rank_one_factors(int_form(mat([[2, 4], [1, 2]]))) == ((2, 1), (1, 2))
    with pytest.raises(RankError):
        rank_one_factors(int_form(Mat2.zero()))
    with pytest.raises(RankError):
        rank_one_factors(int_form(Mat2.identity()))


def _primitive_with_positive_lead(x):
    return gcd(*x) == 1 and next(e for e in x if e != 0) > 0


@given(
    st.tuples(rationals, rationals).filter(lambda t: t != (0, 0)),
    st.tuples(rationals, rationals).filter(lambda t: t != (0, 0)),
)
def test_factor_rank_one_roundtrip(ut, vt):
    m = outer(Vec2(*ut), Vec2(*vt))
    if m.is_zero():
        return
    u, w = rank_one_factors(int_form(m))
    assert is_scalar_multiple(m, outer(Vec2(*u), Vec2(*w))) is not None
    assert _primitive_with_positive_lead(u) and _primitive_with_positive_lead(w)


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


wide_rationals = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30))


@given(st.tuples(wide_rationals, wide_rationals, wide_rationals, wide_rationals))
@example((Fraction(0), Fraction(-7, 10**30), Fraction(10**30 - 1, 3), Fraction(-5)))
@example((Fraction(0), Fraction(0), Fraction(0), Fraction(0)))
@settings(max_examples=300)
def test_to_int_mat_scales_by_the_denominator_lcm(entries):
    form = to_int_mat(Mat2(*entries))
    assert type(form) is tuple and [type(x) for x in form] == [int] * 4
    t = lcm(*(e.denominator for e in entries))
    assert form == tuple(e * t for e in entries)  # row-major


def primitive(m: Mat2) -> tuple[int, int, int, int]:
    """The primitive normal form the oracle keys its search states by."""
    return canon_int_mat(to_int_mat(m))


def test_primitive_normalize_examples():
    assert primitive(mat([[2, 4], [6, 8]])) == (1, 2, 3, 4)
    assert primitive(mat([[Fraction(-1, 2), 0], [0, 0]])) == (1, 0, 0, 0)
    assert primitive(Mat2.identity()) == (1, 0, 0, 1)
    with pytest.raises(ValueError):
        primitive(Mat2.zero())


def test_canon_int_mat_on_vectors_and_any_length():
    # the unrolled length-2 branch and the generic path agree with length 4
    assert canon_int_mat((-4, 6)) == (2, -3)
    assert canon_int_mat((0, -5)) == (0, 1)
    assert canon_int_mat((0, -6, 9)) == (0, 2, -3)
    rng = random.Random(5)
    for _ in range(200):
        a = (rng.randint(-30, 30), rng.randint(-30, 30))
        if a != (0, 0):
            assert canon_int_mat(a) == canon_int_mat(a + (0, 0))[:2]
    with pytest.raises(ValueError):
        canon_int_mat((0, 0))


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
