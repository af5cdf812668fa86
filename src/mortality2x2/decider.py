"""Top-level mortality decision for a set of 2x2 rational matrices.

Complete whenever the set contains at most one invertible matrix:

* a zero member is an immediate length-1 witness;
* with no invertible member, a mortal product must have length <= 2
  (interior factors of a minimal zero product are invertible), so all
  ordered pairs are checked;
* with exactly one invertible member V, every ordered pair of singular
  members (N_i, N_j) is reduced to the exponent question
  N_i V^k N_j = 0 and handed to `decide_pair`.  The work is hoisted out of
  the n^2 pair loop: every member's integer form and determinant
  (`int_form`) are taken once, V's analysis (`analyze_inner`: the invertibility
  check, V's canonical primitive integer form, its characteristic
  polynomial with the seed, and periodicity) is done once per call, each
  member's rank check and factorization into primitive integer u, w with
  V u (`endpoint`) once per member, and only the two integer dot products,
  the scalar solve and any witness check once per pair;
* with two or more invertible members the problem is out of scope; a
  bounded product search still runs and may prove mortality, otherwise
  the verdict is Unknown.

Also provides the instance transformations that normalize the number of
singular members (pairing with a negated copy, padding with nonzero
multiples, cross-splitting two rank-1 factors), each preserving mortality.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Union

from .linalg import Mat2, RankError, factor_rank_one, outer, rank
from .pairs import Prepared, Witness, analyze_inner, decide_pair, endpoint, int_form

Word = tuple[int, ...]

MORTAL_ZERO_MEMBER = "zero-member"
MORTAL_TWO_STEP = "two-step-product"
MORTAL_PAIR_EXPONENT = "pair-exponent"
MORTAL_BOUNDED_SEARCH = "bounded-search"
IMMORTAL_ALL_INVERTIBLE = "all-invertible"
IMMORTAL_NO_ZERO_PAIR = "no-zero-pair-product"
IMMORTAL_PAIRS_REFUSED = "all-pairs-refused"
UNKNOWN_OUT_OF_SCOPE = "multiple-invertible-out-of-scope"


@dataclass(frozen=True)
class Instance:
    """An ordered finite set of matrices; words index into it by position.

    Duplicates are retained so witness words can name input positions
    unambiguously.
    """

    matrices: tuple[Mat2, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrices", tuple(self.matrices))
        if not self.matrices:
            raise ValueError("instance must contain at least one matrix")
        if not all(isinstance(m, Mat2) for m in self.matrices):
            raise TypeError("instance members must be Mat2 values")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Iterable[int]]]) -> Instance:
        return cls(tuple(Mat2.from_rows(r) for r in rows))

    @property
    def singular_indices(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.matrices) if m.det() == 0)

    @property
    def invertible_indices(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.matrices) if m.det() != 0)


@dataclass(frozen=True)
class Mortal:
    """Some product of members is exactly zero; `witness` spells one out."""

    witness: Word
    certificate: str
    exponent_witness: Optional[tuple[int, int, int]] = None


@dataclass(frozen=True)
class Immortal:
    """No product of members is ever zero; `certificate` names the argument."""

    certificate: str


@dataclass(frozen=True)
class Unknown:
    """Out of scope (two or more invertible members); searched up to a bound."""

    search_bound: int
    certificate: str = UNKNOWN_OUT_OF_SCOPE


Verdict = Union[Mortal, Immortal, Unknown]


def decide(instance: Instance, oracle_bound: int = 8) -> Verdict:
    """Decide mortality of the instance.

    Ties are broken deterministically: the first witness in (pair index
    order, exponent) order wins, and the pair decider itself returns
    minimal exponents.
    """
    mats = instance.matrices
    for i, m in enumerate(mats):
        if m.is_zero():
            return Mortal((i,), MORTAL_ZERO_MEMBER)

    forms = [int_form(m) for m in mats]
    invertibles = tuple(i for i, (_, det) in enumerate(forms) if det != 0)
    singulars = tuple(i for i, (_, det) in enumerate(forms) if det == 0)

    if not invertibles:
        for i in range(len(mats)):
            for j in range(len(mats)):
                if (mats[i] * mats[j]).is_zero():
                    return Mortal((i, j), MORTAL_TWO_STEP)
        return Immortal(IMMORTAL_NO_ZERO_PAIR)

    if len(invertibles) >= 2:
        from .oracle import search

        word = search(instance, oracle_bound)
        if word is not None:
            return Mortal(word, MORTAL_BOUNDED_SEARCH)
        return Unknown(oracle_bound)

    if not singulars:
        return Immortal(IMMORTAL_ALL_INVERTIBLE)

    v_index = invertibles[0]
    v = mats[v_index]
    inner = analyze_inner(v, forms[v_index])
    ends = {i: endpoint(mats[i], inner.v, forms[i]) for i in singulars}
    for i in singulars:
        for j in singulars:
            verdict = decide_pair(mats[i], v, mats[j], Prepared(inner, ends[i], ends[j]))
            if isinstance(verdict, Witness):
                word = (i,) + (v_index,) * verdict.k + (j,)
                return Mortal(word, MORTAL_PAIR_EXPONENT, exponent_witness=(i, verdict.k, j))
    return Immortal(IMMORTAL_PAIRS_REFUSED)


def verify_witness(instance: Instance, word: Word) -> bool:
    """True iff the exact left-to-right product over `word` is zero."""
    if not word:
        raise ValueError("witness word must be nonempty")
    product = Mat2.identity()
    for index in word:
        if not 0 <= index < len(instance.matrices):
            raise IndexError(f"word index {index} out of range")
        product = product * instance.matrices[index]
    return product.is_zero()


def to_two_singular(instance: Instance) -> list[Instance]:
    """Sub-instances with exactly two singular members whose mortality
    disjunction equals the instance's mortality.

    A minimal zero product touches at most two singular members (as its
    endpoints), so it suffices to try every singular member paired with its
    negation and every unordered pair of distinct singular members, keeping
    all invertible members alongside.
    """
    mats = instance.matrices
    singulars = instance.singular_indices
    invertibles = [mats[i] for i in instance.invertible_indices]
    out = []
    for i in singulars:
        out.append(Instance((mats[i], -mats[i], *invertibles)))
    for i, j in combinations(singulars, 2):
        out.append(Instance((mats[i], mats[j], *invertibles)))
    return out


def pad_singular(instance: Instance, target: int) -> Instance:
    """Grow the singular part to exactly `target` members with nonzero
    multiples of an existing singular member; mortality is unchanged."""
    singulars = instance.singular_indices
    if target < len(singulars):
        raise ValueError("target below current singular count")
    if target == len(singulars):
        return instance
    base = None
    for i in singulars:
        if not instance.matrices[i].is_zero():
            base = instance.matrices[i]
            break
    if base is None:
        raise ValueError("no nonzero singular member to replicate")
    extra = tuple(base.scale(t) for t in range(2, 2 + target - len(singulars)))
    return Instance(instance.matrices + extra)


def cross_split(b1: Mat2, b2: Mat2) -> tuple[Mat2, Mat2]:
    """Recombine the rank-1 factorizations of b1 = a b^T and b2 = c d^T
    into (c b^T, a d^T).

    A product b1 V_1 ... V_n b2 vanishes exactly when the scalar chain
    b^T V_1 ... V_n c does, which is also what (c b^T) V_1 ... V_n (c b^T)
    tests; symmetrically, a d^T tests the reversed-endpoint products.
    """
    if rank(b1) != 1 or rank(b2) != 1:
        raise RankError("cross_split requires two rank-1 matrices")
    a, b = factor_rank_one(b1)
    c, d = factor_rank_one(b2)
    return outer(c, b), outer(a, d)
