"""Independent brute-force oracle: bounded product search and fuzz harness.

`search` enumerates products breadth-first and reports a shortest zero
product.  States are deduplicated by their projective canonical form (a
primitive integer matrix with positive leading entry): whether a product
can ever reach zero depends only on that class, and scaling every factor
to its class representative keeps integer sizes bounded while preserving
zero-detection exactly.

`fuzz_compare` cross-validates `decide` against `search` on seeded random
instances and reports any disagreement.  It is the measuring stick for the
decision engine, never the authority for immortality.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .decider import Immortal, Instance, Mortal, Unknown, Word, decide, verify_witness
from .linalg import IntMat, InternalError, Mat2, Vec2, canon_int_mat, int_mat_mul, outer, to_int_mat

_ZERO: IntMat = (0, 0, 0, 0)


def search(instance: Instance, max_len: int) -> Optional[Word]:
    """Shortest word of length <= max_len whose product is zero, or None.

    Deterministic: ties between equal-length words break lexicographically.
    Scaling each factor to its projective representative is sound because a
    product is zero exactly when the product of class representatives is.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    mats = [to_int_mat(m) for m in instance.matrices]
    seen: set[IntMat] = set()
    queue: deque[tuple[IntMat, Word]] = deque()
    for i, m in enumerate(mats):
        if m == _ZERO:
            return (i,)
        c = canon_int_mat(m)
        if c not in seen:
            seen.add(c)
            queue.append((c, (i,)))
    while queue:
        state, word = queue.popleft()
        if len(word) >= max_len:
            break  # queue is in nondecreasing length order
        for j, m in enumerate(mats):
            product = int_mat_mul(state, m)
            if product == _ZERO:
                return word + (j,)
            c = canon_int_mat(product)
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
        if self.max_numerator < 0 or self.max_denominator < 1:
            raise ValueError("need max_numerator >= 0 and max_denominator >= 1")


def _random_rat(rng: random.Random, entry_range: EntryRange) -> Fraction:
    return Fraction(
        rng.randint(-entry_range.max_numerator, entry_range.max_numerator),
        rng.randint(1, entry_range.max_denominator),
    )


def random_instance(
    rng: random.Random,
    entry_range: EntryRange = EntryRange(),
    max_singulars: int = 4,
    invertible_probability: float = 0.5,
) -> Instance:
    """Random instance with 1..max_singulars singular members (rank <= 1 by
    outer-product construction) and at most one invertible member."""
    if invertible_probability > 0 and entry_range.max_numerator < 1:
        raise ValueError("an invertible member needs max_numerator >= 1")
    mats = []
    for _ in range(rng.randint(1, max_singulars)):
        u = Vec2(_random_rat(rng, entry_range), _random_rat(rng, entry_range))
        v = Vec2(_random_rat(rng, entry_range), _random_rat(rng, entry_range))
        mats.append(outer(u, v))
    if rng.random() < invertible_probability:
        while True:
            m = Mat2(
                _random_rat(rng, entry_range),
                _random_rat(rng, entry_range),
                _random_rat(rng, entry_range),
                _random_rat(rng, entry_range),
            )
            if m.det() != 0:
                break
        mats.insert(rng.randint(0, len(mats)), m)
    return Instance(tuple(mats))


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
        return {
            "count": self.count,
            "seed": self.seed,
            "bound": self.bound,
            "mortal": self.mortal,
            "immortal": self.immortal,
            "unknown": self.unknown,
            "witness_failures": self.witness_failures,
            "immortal_contradicted": self.immortal_contradicted,
            "search_misses": self.search_misses,
            "mortal_unconfirmed": self.mortal_unconfirmed,
            "contradictions": self.contradictions,
            "failing_seeds": list(self.failing_seeds),
            "timings": {
                "decide_seconds": round(self.decide_seconds, 3),
                "search_seconds": round(self.search_seconds, 3),
            },
        }


def fuzz_compare(
    count: int,
    seed: int,
    bound: int = 8,
    entry_range: EntryRange = EntryRange(),
    max_singulars: int = 4,
    invertible_probability: float = 0.5,
) -> FuzzReport:
    """Cross-validate `decide` against `search` on `count` seeded instances.

    Each instance is drawn from its own child seed, and the child seeds are
    drawn once from `seed`, so instance i does not depend on how many
    instances are checked or in which order.
    """
    if count < 1:
        raise ValueError("count must be positive")
    base = random.Random(seed)
    child_seeds = [base.getrandbits(63) for _ in range(count)]
    report = FuzzReport(count=count, seed=seed, bound=bound)

    for child_seed in child_seeds:
        instance = random_instance(
            random.Random(child_seed), entry_range, max_singulars, invertible_probability
        )
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
