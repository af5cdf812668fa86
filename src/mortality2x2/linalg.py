"""Exact 2x2 linear algebra.

Vectors, matrices and characteristic-polynomial data over arbitrary-precision
rationals (`fractions.Fraction`), a matrix's integer form (`to_int_mat`),
with its determinant as `int_form`, the integer product, power and zero
(`int_mat_mul`, `int_mat_pow`, `ZERO`), the primitive form of any integer
tuple (`canon_int_mat`) and, on it, the one rank-1 factorization
(`rank_one_factors`).  On these the oracle keys its states, `verify_witness`
multiplies out a word, and the decider and pair engine run their zero tests
and per-pair arithmetic.  Every value is immutable and every operation is a
pure function.  No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Union

Rat = Fraction
RatLike = Union[Fraction, int]


class RankError(ValueError):
    """A matrix does not have the rank an operation requires."""


class InternalError(AssertionError):
    """An exact internal check failed: a defect in the engine, never a verdict.

    Raised explicitly rather than through `assert`, so that the checks
    behind every verdict also run under `python -O`.
    """


def _rat(x: RatLike) -> Rat:
    """x as a `Fraction`.  Only an `int` or a `Fraction` is taken: a float
    would turn into its binary fraction (0.1 into 3602879701896397/2^55),
    so it and anything else raise `TypeError`.  The exact types are tested
    first: a miss of `isinstance(x, Fraction)` runs the `numbers` ABC check
    in Python, so an `int` would pay it on every entry."""
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or a Fraction, got {type(x).__name__}")


def _int_at_least(name: str, value: int, least: int) -> None:
    """Refuse a count or bound argument, by name, unless it is an `int` of
    at least `least`: a float (NaN among them), a `Fraction` or a `bool`
    raises `TypeError`, a smaller int `ValueError`."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")


# The value classes below convert and set each field once, in their own
# `__init__`; equality, hashing, `repr`, pickling and `dataclasses.replace`
# are the dataclass's own.


@dataclass(frozen=True, slots=True, init=False)
class Vec2:
    """Column vector with two rational coordinates."""

    x0: Rat
    x1: Rat

    def __init__(self, x0: RatLike, x1: RatLike) -> None:
        put = object.__setattr__
        put(self, "x0", _rat(x0))
        put(self, "x1", _rat(x1))

    def dot(self, other: Vec2) -> Rat:
        return self.x0 * other.x0 + self.x1 * other.x1

    def scale(self, s: RatLike) -> Vec2:
        s = _rat(s)
        return Vec2(s * self.x0, s * self.x1)

    def perp(self) -> Vec2:
        """A vector orthogonal to this one (quarter turn)."""
        return Vec2(-self.x1, self.x0)

    def is_zero(self) -> bool:
        return self.x0 == 0 and self.x1 == 0


@dataclass(frozen=True, slots=True, init=False)
class Mat2:
    """2x2 rational matrix, stored row-major."""

    e00: Rat
    e01: Rat
    e10: Rat
    e11: Rat

    def __init__(self, e00: RatLike, e01: RatLike, e10: RatLike, e11: RatLike) -> None:
        put = object.__setattr__
        put(self, "e00", _rat(e00))
        put(self, "e01", _rat(e01))
        put(self, "e10", _rat(e10))
        put(self, "e11", _rat(e11))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[RatLike]]) -> Mat2:
        (a, b), (c, d) = rows
        return cls(a, b, c, d)

    @classmethod
    def identity(cls) -> Mat2:
        return cls(1, 0, 0, 1)

    @classmethod
    def zero(cls) -> Mat2:
        return cls(0, 0, 0, 0)

    def entries(self) -> tuple[Rat, Rat, Rat, Rat]:
        return (self.e00, self.e01, self.e10, self.e11)

    def __mul__(self, other: Mat2) -> Mat2:
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.e00 * other.e00 + self.e01 * other.e10,
            self.e00 * other.e01 + self.e01 * other.e11,
            self.e10 * other.e00 + self.e11 * other.e10,
            self.e10 * other.e01 + self.e11 * other.e11,
        )

    def __add__(self, other: Mat2) -> Mat2:
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.e00 + other.e00,
            self.e01 + other.e01,
            self.e10 + other.e10,
            self.e11 + other.e11,
        )

    def __sub__(self, other: Mat2) -> Mat2:
        if not isinstance(other, Mat2):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> Mat2:
        return Mat2(-self.e00, -self.e01, -self.e10, -self.e11)

    def scale(self, s: RatLike) -> Mat2:
        s = _rat(s)
        return Mat2(s * self.e00, s * self.e01, s * self.e10, s * self.e11)

    def mul_vec(self, u: Vec2) -> Vec2:
        return Vec2(self.e00 * u.x0 + self.e01 * u.x1, self.e10 * u.x0 + self.e11 * u.x1)

    def trace(self) -> Rat:
        return self.e00 + self.e11

    def det(self) -> Rat:
        return self.e00 * self.e11 - self.e01 * self.e10

    def is_zero(self) -> bool:
        return self.e00 == 0 and self.e01 == 0 and self.e10 == 0 and self.e11 == 0


def outer(u: Vec2, v: Vec2) -> Mat2:
    """Outer product u v^T (rank <= 1 by construction)."""
    return Mat2(u.x0 * v.x0, u.x0 * v.x1, u.x1 * v.x0, u.x1 * v.x1)


@dataclass(frozen=True, slots=True, init=False)
class CharPoly:
    """Coefficients of the characteristic polynomial x^2 + b x + c, kept as
    `int`s when both are (as on V's integer form), else as `Fraction`s.

    Two invariants are derived once, at construction: the discriminant
    d = b^2 - 4c, and the seed b^2/c - 2 = l1/l2 + l2/l1, twice the
    rational part of the eigenvalue ratio (None when c = 0).  The seed
    alone tells the spectral regime of an invertible matrix: 2 for d = 0,
    [-2, 2) for d < 0, and off [-2, 2] for d > 0 unless b = 0 (seed -2).
    """

    b: RatLike
    c: RatLike
    discriminant: RatLike = field(init=False, repr=False, compare=False)
    seed: Optional[Rat] = field(init=False, repr=False, compare=False)

    def __init__(self, b: RatLike, c: RatLike) -> None:
        if type(b) is not int or type(c) is not int:
            b, c = _rat(b), _rat(c)
        put = object.__setattr__
        put(self, "b", b)
        put(self, "c", c)
        put(self, "discriminant", b * b - 4 * c)
        put(self, "seed", Fraction(b * b - 2 * c, c) if c else None)


def is_scalar_multiple(m: Mat2, n: Mat2) -> Optional[Rat]:
    """Nonzero s with m == s * n, or None.

    The pair of zero matrices yields None: no nonzero multiplier is forced,
    and callers treat the zero matrix separately.
    """
    s = None
    for me, ne in zip(m.entries(), n.entries()):
        if ne != 0:
            s = me / ne
            break
    if s is None or s == 0:
        return None
    if all(me == s * ne for me, ne in zip(m.entries(), n.entries())):
        return s
    return None


def char_poly(m: Mat2) -> CharPoly:
    """Characteristic polynomial x^2 + b x + c with b = -trace, c = det."""
    return CharPoly(-m.trace(), m.det())


def mat_pow(m: Mat2, k: int) -> Mat2:
    """Exact k-th power; k = 0 gives the identity.

    With t the lcm of m's denominators, m^k = (t m)^k / t^k, and the power
    of the integer matrix t m is taken by `int_mat_pow`.
    """
    power = int_mat_pow(to_int_mat(m), k)
    scale = lcm(*(e.denominator for e in m.entries())) ** k
    return Mat2(*(Fraction(e, scale) for e in power))


IntMat = tuple[int, int, int, int]
IntVec = tuple[int, int]
ZERO: IntMat = (0, 0, 0, 0)


def to_int_mat(m: Mat2) -> IntMat:
    """Entries of the matrix m times the lcm of their denominators, row-major."""
    a, b, c, d = m.e00, m.e01, m.e10, m.e11
    t = lcm(a.denominator, b.denominator, c.denominator, d.denominator)
    return (a.numerator * (t // a.denominator), b.numerator * (t // b.denominator),
            c.numerator * (t // c.denominator), d.numerator * (t // d.denominator))


IntForm = tuple[IntMat, int]


def int_form(m: Mat2) -> IntForm:
    """A member's integer form `to_int_mat(m)` with its determinant, whose
    sign and zero test are m's own."""
    a = to_int_mat(m)
    return a, a[0] * a[3] - a[1] * a[2]


def int_mat_mul(a: IntMat, b: IntMat) -> IntMat:
    """The integer product a b, row-major."""
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def int_mat_pow(a: IntMat, k: int) -> IntMat:
    """a^k for k >= 0, left to right over the bits of k: square, then
    multiply by a, so every product but the squares has the small base as a
    factor and no square is left unused."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    result = a if k else (1, 0, 0, 1)
    for bit in bin(k)[3:]:
        result = int_mat_mul(result, result)
        if bit == "1":
            result = int_mat_mul(result, a)
    return result


def canon_int_mat(a: tuple[int, ...]) -> tuple[int, ...]:
    """a divided by the gcd of its entries, signed so that the first nonzero
    entry is positive; the canonical representative of a's nonzero-scaling
    class, for a matrix or a vector alike."""
    g = gcd(*a)
    if g == 0:
        raise ValueError("zero entries have no primitive form")
    for value in a:
        if value != 0:
            if value < 0:
                g = -g
            break
    # unrolled for the lengths in use: V in `analyze_inner`, and the vectors
    # of `rank_one_factors` and of the oracle's search
    if len(a) == 4:
        return (a[0] // g, a[1] // g, a[2] // g, a[3] // g)
    if len(a) == 2:
        return (a[0] // g, a[1] // g)
    return tuple([value // g for value in a])


def rank_one_factors(form: IntForm) -> tuple[IntVec, IntVec]:
    """Primitive integer u and w with N a nonzero multiple of u w^T, from N's
    integer form `form = int_form(n)`; `RankError` unless N has rank 1.

    u is N's first nonzero column and w its first nonzero row, each made
    primitive by `canon_int_mat`, so first nonzero entry positive.
    """
    a, det = form
    if a == ZERO or det != 0:
        raise RankError("expected a rank-1 matrix")
    u = canon_int_mat((a[0], a[2]) if a[0] or a[2] else (a[1], a[3]))
    return u, canon_int_mat(a[:2] if a[0] or a[1] else a[2:])
