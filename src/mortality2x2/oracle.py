"""Independent brute-force oracle: bounded product search and fuzz harness.

`search` enumerates products breadth-first and reports a shortest zero
product.  It rests on two facts from the paper's reduction, where a singular
member is N = u w^T:

* no shortest zero word starts with an invertible member X, because X S is
  zero only when S is;
* a product u w^T P is zero exactly when the row w^T P is, so the future of
  a word that starts with a singular member depends on the projective class
  of that row alone, never on u.

So every state is one primitive row, seeded from each singular member's w.
An invertible step is a row-matrix product and a singular step only the dot
product w . u_N, which is zero or leads back to the seed w_N.

`search` and `verify_witness` take integer forms, rank-1 factors and
products from `linalg` alone and run no code of the pair engine `pairs`.
`fuzz_compare` cross-validates `decide` against them on seeded random
instances and reports any disagreement.  It is the measuring stick for the
decision engine, never the authority for immortality.

`random_instance` takes each entry as a shared `Fraction` from one bounded,
process-wide table keyed by its unreduced draw, and returns the instance
with its integer forms already set from the entries' reduced integers.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Optional

from .decider import Immortal, Instance, Mortal, Unknown, Word, decide, verify_witness
from .linalg import ZERO, IntMat, IntVec, InternalError, Mat2, _int_at_least, canon_int_mat, rank_one_factors


def search(instance: Instance, max_len: int) -> Optional[Word]:
    """Shortest word of length <= max_len whose product is zero, or None.

    Deterministic: ties between equal-length words break lexicographically.
    A zero member i gives (i,) at once.  Two facts then bound the search:

    * a shortest zero word starts with a singular member, since a word X S
      with X invertible is zero only if the shorter S is;
    * a word that starts with N_i = u_i w_i^T has the product u_i r^T with
      the row r^T = w_i^T P, so it and each extension of it are zero iff r
      and the same extension of r are: its future depends on r's class.

    A state is that class as a primitive row (`canon_int_mat`), seeded in
    index order with each singular member's w, which `linalg.rank_one_factors`
    takes from the shared `Instance.forms`, the first word of each class
    kept.  A step on an invertible member M is `canon_int_mat` of w^T M.  A
    step on a singular member N_j is only the zero test w . u_j == 0:
    otherwise w^T N_j is a multiple of w_j^T, a seed kept by a shorter word.

    The result is the (length, lex)-first zero word.  The queue holds kept
    words in (length, lex) order, and each class keeps its first word.  If
    the first zero word had a dropped prefix, the word kept for that
    prefix's class, followed by the same suffix, would be an earlier zero
    word.

    A non-`int` `max_len` raises `TypeError`; below 1, `ValueError`.
    """
    _int_at_least("max_len", max_len, 1)
    invertibles: list[tuple[int, IntMat]] = []
    singulars: list[tuple[int, IntVec]] = []
    seen: set[IntVec] = set()
    queue: deque[tuple[IntVec, Word]] = deque()
    for i, form in enumerate(instance.forms):
        a, det = form
        if a == ZERO:
            return (i,)
        if det:
            invertibles.append((i, a))
        else:
            u, w = rank_one_factors(form)
            singulars.append((i, u))
            if w not in seen:
                seen.add(w)
                queue.append((w, (i,)))
    while queue:
        (w0, w1), word = queue.popleft()
        if len(word) >= max_len:
            break  # queue is in nondecreasing length order
        # a zero test ends the search, so testing before the invertible steps
        # returns what the steps in index order would
        for j, (u0, u1) in singulars:
            if w0 * u0 + w1 * u1 == 0:
                return word + (j,)
        for j, m in invertibles:
            c = canon_int_mat((w0 * m[0] + w1 * m[2], w0 * m[1] + w1 * m[3]))
            if c not in seen:
                seen.add(c)
                queue.append((c, word + (j,)))
    return None


@dataclass(frozen=True)
class EntryRange:
    """Sampling ranges: numerators in [-max_numerator, max_numerator],
    denominators in [1, max_denominator]."""

    max_numerator: int = 3
    max_denominator: int = 3

    def __post_init__(self) -> None:
        _int_at_least("max_numerator", self.max_numerator, 0)
        _int_at_least("max_denominator", self.max_denominator, 1)


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform draw from range(n), n >= 1, taken as CPython's
    `random.Random.randrange(n)` takes it: `getrandbits(n.bit_length())`
    until the result is below n.  So `randint(lo, hi)` is
    `lo + _below(getrandbits, hi - lo + 1)`, draw for draw, with one call
    frame where `randint` runs three."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _random_rats(getrandbits: Callable[[int], int], top: int, den: int) -> tuple[int, ...]:
    """Four rationals a/b, c/d, e/f, g/h as (a, b, c, d, e, f, g, h): each
    numerator uniform in [-top, top], each denominator in [1, den]."""
    span = 2 * top + 1
    return (_below(getrandbits, span) - top, _below(getrandbits, den) + 1,
            _below(getrandbits, span) - top, _below(getrandbits, den) + 1,
            _below(getrandbits, span) - top, _below(getrandbits, den) + 1,
            _below(getrandbits, span) - top, _below(getrandbits, den) + 1)


# The most entries `_entry` keeps.  The default range can draw 78 keys and
# `EntryRange(7, 5)` 714 (an invertible member's (a, b) is among the (a e, b f)),
# so under either every entry is one shared `Fraction` for the life of the
# process; a wider range evicts the least recently drawn.  Full of
# `EntryRange(1000, 1000)` keys, the table held about 400 bytes per entry
# (tracemalloc, Python 3.11).
ENTRY_TABLE_SIZE = 2048


@lru_cache(maxsize=ENTRY_TABLE_SIZE)
def _entry(numerator: int, denominator: int) -> tuple[Fraction, int, int]:
    """`Fraction(numerator, denominator)` with its reduced numerator and
    denominator, one shared value per unreduced draw."""
    x = Fraction(numerator, denominator)
    return x, x.numerator, x.denominator


def _member(n0: int, d0: int, n1: int, d1: int, n2: int, d2: int, n3: int, d3: int) -> tuple[Mat2, IntMat]:
    """The member with entries n0/d0, n1/d1, n2/d2 and n3/d3, row-major,
    each from `_entry`, and its `to_int_mat`: each reduced numerator times
    the lcm of the reduced denominators over its own."""
    x0, p0, q0 = _entry(n0, d0)
    x1, p1, q1 = _entry(n1, d1)
    x2, p2, q2 = _entry(n2, d2)
    x3, p3, q3 = _entry(n3, d3)
    t = lcm(q0, q1, q2, q3)
    return Mat2(x0, x1, x2, x3), (p0 * (t // q0), p1 * (t // q1), p2 * (t // q2), p3 * (t // q3))


def random_instance(
    rng: random.Random,
    entry_range: EntryRange = EntryRange(),
    max_singulars: int = 4,
    invertible_probability: float = 0.5,
) -> Instance:
    """Random instance with 1..max_singulars singular members (rank <= 1 by
    outer-product construction) and at most one invertible member.

    The draws from `rng`, pinned by a digest in the tests, are in this order:
    the count `randint(1, max_singulars)`; per singular member u v^T, the
    entries of u = (a/b, c/d) and v = (e/f, g/h) as a, b, c, d, e, f, g, h,
    each numerator `randint(-max_numerator, max_numerator)` and denominator
    `randint(1, max_denominator)`; one `random()`; if it is below
    `invertible_probability`, the rows (a/b, c/d) and (e/f, g/h) drawn alike
    until nonsingular, then its index `randint(0, count)`.  Each of these
    integers equals `randint`'s draw and is taken by `_below` straight from
    `rng.getrandbits`, so the sequence rests on the Mersenne Twister's
    `getrandbits` alone.

    Each entry, a e / (b f) and so on for a singular member and a/b and so
    on for the invertible one, is the shared `Fraction` that `_entry` keeps
    for its unreduced draw.  The instance is returned with its `forms` set,
    each its member's `int_form`, built by `_member` from the entries'
    reduced integers; a singular member's determinant is 0, as for any
    outer product.
    """
    _int_at_least("max_singulars", max_singulars, 1)
    if not 0 <= invertible_probability <= 1:  # NaN fails too
        raise ValueError("invertible_probability must be in [0, 1]")
    top, den = entry_range.max_numerator, entry_range.max_denominator
    if invertible_probability > 0 and top < 1:
        raise ValueError("an invertible member needs max_numerator >= 1")
    getrandbits = rng.getrandbits
    mats = []
    forms = []
    for _ in range(_below(getrandbits, max_singulars) + 1):
        a, b, c, d, e, f, g, h = _random_rats(getrandbits, top, den)
        m, form = _member(a * e, b * f, a * g, b * h, c * e, d * f, c * g, d * h)
        mats.append(m)
        forms.append((form, 0))
    if rng.random() < invertible_probability:
        while True:
            a, b, c, d, e, f, g, h = _random_rats(getrandbits, top, den)
            if a * g * d * f != c * e * b * h:  # the determinant, times b d f h > 0, is nonzero
                break
        m, form = _member(a, b, c, d, e, f, g, h)
        index = _below(getrandbits, len(mats) + 1)
        mats.insert(index, m)
        forms.insert(index, (form, form[0] * form[3] - form[1] * form[2]))
    return Instance._from_forms(tuple(forms), tuple(mats))


@dataclass
class FuzzReport:
    """Outcome counters of one fuzz run; reproducible from (count, seed)."""

    count: int
    seed: int
    bound: int
    mortal: int = 0
    immortal: int = 0
    unknown: int = 0
    witness_failures: int = 0  # Mortal verdict whose witness does not verify
    immortal_contradicted: int = 0  # Immortal verdict but the search found a zero product
    search_misses: int = 0  # witness within the bound yet missed by the search
    mortal_unconfirmed: int = 0  # witness beyond the bound; search silence is fine
    failing_seeds: list[int] = field(default_factory=list)
    decide_seconds: float = 0.0
    search_seconds: float = 0.0

    @property
    def contradictions(self) -> int:
        return self.witness_failures + self.immortal_contradicted + self.search_misses

    def as_dict(self) -> dict:
        """The `int` fields in their order, then `contradictions`,
        `failing_seeds` and, as "timings", the `float` fields rounded.  A
        field's `type` is its annotation's text: annotations are postponed."""
        own = fields(self)
        doc = {f.name: getattr(self, f.name) for f in own if f.type == "int"}
        doc["contradictions"] = self.contradictions
        doc["failing_seeds"] = list(self.failing_seeds)
        doc["timings"] = {f.name: round(getattr(self, f.name), 3) for f in own if f.type == "float"}
        return doc


def fuzz_compare(count: int, seed: int, bound: int = 8, entry_range: EntryRange = EntryRange()) -> FuzzReport:
    """Cross-validate `decide` against `search` on `count` seeded instances.

    Each instance is drawn from its own child seed, and the child seeds are
    drawn once from `seed`, so instance i does not depend on how many
    instances are checked or in which order.  One generator serves them
    all: reseeded with a child seed, it is in the state of a fresh
    `random.Random(child_seed)`.

    A non-`int` `count` or `bound` raises `TypeError`; below 1, `ValueError`.
    """
    _int_at_least("count", count, 1)
    _int_at_least("bound", bound, 1)
    rng = random.Random(seed)
    child_seeds = [rng.getrandbits(63) for _ in range(count)]
    report = FuzzReport(count=count, seed=seed, bound=bound)

    for child_seed in child_seeds:
        rng.seed(child_seed)
        instance = random_instance(rng, entry_range)
        t0 = time.perf_counter()
        verdict = decide(instance, oracle_bound=bound)
        t1 = time.perf_counter()
        word = search(instance, bound)
        t2 = time.perf_counter()
        report.decide_seconds += t1 - t0
        report.search_seconds += t2 - t1

        contradictions = report.contradictions
        if isinstance(verdict, Mortal):
            report.mortal += 1
            if not verify_witness(instance, verdict.witness):
                report.witness_failures += 1
            elif word is None:
                if len(verdict.witness) <= bound:
                    report.search_misses += 1
                else:
                    report.mortal_unconfirmed += 1
        elif isinstance(verdict, Immortal):
            report.immortal += 1
            if word is not None:
                report.immortal_contradicted += 1
        elif isinstance(verdict, Unknown):
            report.unknown += 1
        else:
            raise InternalError(f"decide returned a non-verdict: {verdict!r}")
        if report.contradictions > contradictions and len(report.failing_seeds) < 20:
            report.failing_seeds.append(child_seed)
    return report
