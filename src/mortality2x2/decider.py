"""Top-level mortality decision for a set of 2x2 rational matrices.

Complete whenever the set contains at most one invertible matrix or no
singular one.  Each member's integer form and determinant
(`linalg.int_form`) are taken once per `Instance`, as `Instance.forms`, or
set when the instance is made: from the entries by `Instance.from_int_rows`
when all are ints, and from its integer draws by the oracle's
`random_instance`.  `decide`, the oracle's `search` and `verify_witness`
share them.  The two checkers, `search` and `verify_witness`, run on
`linalg` alone, no code of the pair engine `pairs`.  Every check below runs
on the forms; `decide` reads the `Mat2` members only for a pair that reaches
`decide_pair`, so an instance from `from_int_rows` whose pairs all fail the
orbit sieve is decided without a `Mat2` ever being built:

* a zero member (integer form `ZERO`) is an immediate length-1 witness;
* with no singular member every product is invertible: Immortal, whatever
  the number of invertible members;
* with no invertible member, a mortal product must have length <= 2
  (interior factors of a minimal zero product are invertible), so every
  ordered pair of forms is multiplied out;
* with exactly one invertible member V, every ordered pair of singular
  members (N_i, N_j) is reduced to the exponent question
  N_i V^k N_j = 0.  V's analysis (`analyze_inner`: the invertibility
  check, V's canonical primitive integer form, its characteristic
  polynomial with the seed, and periodicity) is done once per call, each
  member's rank check and factorization into primitive integer u, w with
  V u (`endpoint`) once per member, and only the two integer dot products,
  the scalar solve on ints and any witness check once per `decide_pair`
  call, whose hoisted inputs travel as a plain tuple: no object of the
  package is built per pair.  The right ends are put in buckets by
  `Endpoint.right_key`, in singular order, and each left end, in order,
  goes to `decide_pair` with the bucket of its `left_key` alone, so the
  pairs run in row-major order and the first witness is that of a loop
  over all n^2 pairs.  From `SIEVE_MIN_SINGULARS` = 5 singular members on,
  the keys come from V's `orbit_sieve`, and a pair whose keys differ lies
  in different orbits of V modulo a small prime and has no exponent (see
  `pairs`): the pair phase makes O(n + survivors) calls, not n^2.  Below
  it every key is None and all ends share one bucket.  The threshold is
  the break-even of two entry ranges pooled, not of either alone: on
  unbiased one-invertible draws
  (`random_instance(max_singulars=12, invertible_probability=1.0)`, 3,000
  under each of `EntryRange()` and `EntryRange(7, 5)`, best of 7, two runs
  on Python 3.11), the sieve and the join made `decide` 2.5-3.3 us slower
  at n = 4, and 0.9-1.7 us faster at n = 5, 2.7-3.8 us at n = 6, 10.2 us
  at n = 8 and 22-23 us, of 78-80 us, at n = 12.  Under `EntryRange()`
  alone they add 4-7 us per decide at every n from 4 to 12: most of those
  draws stop at an early witness, before the labels are repaid;
* with two or more invertible members and a singular one the problem is
  out of scope; a bounded product search still runs and may prove
  mortality, otherwise the verdict is Unknown.

Also provides the instance transformations that normalize the number of
singular members (pairing with a negated copy, padding with nonzero
multiples, cross-splitting two rank-1 factors), each preserving mortality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from typing import Iterable, Optional

from .linalg import ZERO, IntForm, Mat2, Vec2, _int_at_least, int_form, int_mat_mul, outer, rank_one_factors
from .pairs import Witness, analyze_inner, decide_pair, endpoint, orbit_sieve

Word = tuple[int, ...]

MORTAL_ZERO_MEMBER = "zero-member"
MORTAL_TWO_STEP = "two-step-product"
MORTAL_PAIR_EXPONENT = "pair-exponent"
MORTAL_BOUNDED_SEARCH = "bounded-search"
IMMORTAL_ALL_INVERTIBLE = "all-invertible"
IMMORTAL_NO_ZERO_PAIR = "no-zero-pair-product"
IMMORTAL_PAIRS_REFUSED = "all-pairs-refused"
UNKNOWN_OUT_OF_SCOPE = "multiple-invertible-out-of-scope"

# The fewest singular members for which `decide` builds V's `orbit_sieve`:
# the break-even of the two entry ranges pooled, measured in the module
# docstring (under `EntryRange()` alone the sieve costs 4-7 us at every n).
SIEVE_MIN_SINGULARS = 5


class _MatricesFromForms:
    """`Instance.matrices` for an instance that `from_int_rows` made without
    it: built on first read from the integer forms, which are exactly the
    entries, and kept in the instance's `__dict__`.  A non-data descriptor,
    so an instance that holds its `matrices` reads them at no extra cost;
    on the class it raises `AttributeError`, so the field has no default."""

    def __get__(self, instance: Optional[Instance], owner: type) -> tuple[Mat2, ...]:
        forms = None if instance is None else instance.__dict__.get("forms")
        if forms is None:
            raise AttributeError("matrices")
        matrices = instance.__dict__["matrices"] = tuple(Mat2(*a) for a, _ in forms)
        return matrices


@dataclass(frozen=True)
class Instance:
    """An ordered finite set of matrices; words index into it by position.

    Duplicates are retained so witness words can name input positions
    unambiguously.  `forms`, each member's `int_form`, is taken on first use
    and kept, or set at once by `from_int_rows` and the oracle's
    `random_instance`; it takes no part in equality, hashing or `repr`.  An
    instance from `from_int_rows` builds its `matrices` on first read; `==`,
    `hash`, `repr`, `copy` and pickling read them, so they behave as for
    `from_rows`, and `decide` reads them only for a pair that reaches
    `decide_pair`.
    """

    matrices: tuple[Mat2, ...] = _MatricesFromForms()  # type: ignore[assignment]

    def __post_init__(self) -> None:
        matrices = tuple(self.matrices)
        if not matrices:
            raise ValueError("instance must contain at least one matrix")
        for m in matrices:
            if not isinstance(m, Mat2):
                raise TypeError("instance members must be Mat2 values")
        object.__setattr__(self, "matrices", matrices)

    def __getstate__(self) -> dict:
        # `matrices` first, as `__init__` sets it, so pickles are the same
        # however the instance was made.
        return {"matrices": self.matrices, **self.__dict__}

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Iterable[int]]]) -> Instance:
        return cls(tuple(Mat2.from_rows(r) for r in rows))

    @classmethod
    def from_int_rows(cls, rows: Iterable[Iterable[Iterable[int]]]) -> Instance:
        """`from_rows` for `int` entries, with `forms` set from those ints: the
        lcm of their denominators is 1, so each is its member's `int_form`.
        No `Mat2` is built until `matrices` is first read.  Any other entry,
        `bool` included, raises `TypeError`; no rows, `ValueError`."""
        ints = [(a, b, c, d) for (a, b), (c, d) in rows]
        if not ints:
            raise ValueError("instance must contain at least one matrix")
        for a, b, c, d in ints:
            if not type(a) is type(b) is type(c) is type(d) is int:
                raise TypeError("from_int_rows takes int entries only")
        return cls._from_forms(tuple((a, a[0] * a[3] - a[1] * a[2]) for a in ints))

    @classmethod
    def _from_forms(cls, forms: tuple[IntForm, ...], matrices: Optional[tuple[Mat2, ...]] = None) -> Instance:
        """An instance with `forms` set at once, unchecked: each must be the
        `int_form` of its member, and there must be at least one.  Without
        `matrices` the forms are the entries themselves, and `matrices` is
        built on first read.  The loader `from_int_rows` and the oracle's
        `random_instance` make their instances here."""
        instance = cls.__new__(cls)
        # set as `__post_init__` sets `matrices`: on CPython 3.11 a read of
        # `__dict__` gives the instance a dict object of its own, 64 bytes more
        if matrices is not None:
            object.__setattr__(instance, "matrices", matrices)
        object.__setattr__(instance, "forms", forms)
        return instance

    @cached_property
    def forms(self) -> tuple[IntForm, ...]:
        return tuple(int_form(m) for m in self.matrices)

    @property
    def singular_indices(self) -> tuple[int, ...]:
        return tuple(i for i, (_, det) in enumerate(self.forms) if det == 0)

    @property
    def invertible_indices(self) -> tuple[int, ...]:
        return tuple(i for i, (_, det) in enumerate(self.forms) if det != 0)


@dataclass(frozen=True)
class Mortal:
    """Some product of members is exactly zero; `witness` spells one out.

    `exponent_witness` (i, k, j), set only on a pair-exponent verdict, names
    the witness word exactly: it is (i,) + (v,) * k + (j,), v the index of
    the sole invertible member, so i, j for k = 0.  The CLI writes such a
    word from this triple and its second index alone.
    """

    witness: Word
    certificate: str
    exponent_witness: Optional[tuple[int, int, int]] = None


@dataclass(frozen=True)
class Immortal:
    """No product of members is ever zero; `certificate` names the argument."""

    certificate: str


@dataclass(frozen=True)
class Unknown:
    """Out of scope (two or more invertible members and a singular one);
    searched up to a bound."""

    search_bound: int
    certificate: str = UNKNOWN_OUT_OF_SCOPE


# Written with `|`, not typing.Union, which caches its result and so would keep
# these classes, and through them this whole module, alive after a re-import.
Verdict = Mortal | Immortal | Unknown


def decide(instance: Instance, oracle_bound: int = 8) -> Verdict:
    """Decide mortality of the instance.

    Ties are broken deterministically: the first witness in (pair index
    order, exponent) order wins, and the pair decider itself returns
    minimal exponents.  With one invertible member, each ordered pair of
    singular members whose orbit keys agree goes to `decide_pair` once, in
    row-major order.  No verdict, endpoint or pair result outlives a call;
    an `Instance` keeps only its own members' integer forms, and the `Mat2`
    members that `decide_pair` takes.  `instance.matrices` is read only for
    a pair that reaches `decide_pair`, so an instance from `from_int_rows`
    that is decided on its forms alone, all its pairs refused by the orbit
    sieve among them, builds no `Mat2`.

    A non-`int` `oracle_bound` raises `TypeError`; below 1, `ValueError`.
    """
    _int_at_least("oracle_bound", oracle_bound, 1)
    forms = instance.forms
    for i, (a, _) in enumerate(forms):
        if a == ZERO:
            return Mortal((i,), MORTAL_ZERO_MEMBER)

    invertibles = instance.invertible_indices
    singulars = instance.singular_indices

    if not singulars:
        return Immortal(IMMORTAL_ALL_INVERTIBLE)

    if not invertibles:
        for i, (a, _) in enumerate(forms):
            for j, (b, _) in enumerate(forms):
                if int_mat_mul(a, b) == ZERO:
                    return Mortal((i, j), MORTAL_TWO_STEP)
        return Immortal(IMMORTAL_NO_ZERO_PAIR)

    if len(invertibles) >= 2:
        from .oracle import search

        word = search(instance, oracle_bound)
        if word is not None:
            return Mortal(word, MORTAL_BOUNDED_SEARCH)
        return Unknown(oracle_bound)

    v_index = invertibles[0]
    inner = analyze_inner(forms[v_index])
    sieve = orbit_sieve(inner) if len(singulars) >= SIEVE_MIN_SINGULARS else None
    ends = [(j, endpoint(forms[j], inner.v, sieve)) for j in singulars]
    buckets: dict[Optional[int], list] = {}
    for end in ends:
        buckets.setdefault(end[1].right_key, []).append(end)
    for i, end_i in ends:
        for j, end_j in buckets.get(end_i.left_key, ()):
            mats = instance.matrices
            verdict = decide_pair(mats[i], mats[v_index], mats[j], (inner, end_i, end_j))
            if isinstance(verdict, Witness):
                word = [v_index] * (verdict.k + 2)  # i V^k j, built in one pass
                word[0], word[-1] = i, j
                return Mortal(tuple(word), MORTAL_PAIR_EXPONENT, exponent_witness=(i, verdict.k, j))
    return Immortal(IMMORTAL_PAIRS_REFUSED)


def verify_witness(instance: Instance, word: Word) -> bool:
    """True iff the exact left-to-right product over `word` is zero.

    The product is taken over `Instance.forms`, each a positive multiple of
    its member, so it is zero exactly when the rational one is.
    """
    if not word:
        raise ValueError("witness word must be nonempty")
    n = len(instance.forms)
    if min(word) < 0 or max(word) >= n:
        index = next(i for i in word if not 0 <= i < n)
        raise IndexError(f"word index {index} out of range 0..{n - 1}")
    forms = [a for a, _ in instance.forms]
    return reduce(int_mat_mul, map(forms.__getitem__, word)) == ZERO


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
        if instance.forms[i][0] != ZERO:
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
    tests; symmetrically, a d^T tests the reversed-endpoint products.  The
    factors are the primitive integer ones of `linalg.rank_one_factors`, so
    each output is fixed up to that normal form, a nonzero multiple of the
    one any other factorization gives; `RankError` unless both are rank 1.
    """
    a, b = rank_one_factors(int_form(b1))
    c, d = rank_one_factors(int_form(b2))
    return outer(Vec2(*c), Vec2(*b)), outer(Vec2(*a), Vec2(*d))
