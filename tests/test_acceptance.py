"""Acceptance suite: the eight exit criteria, one test per criterion.

Each test prints a single PASS line with its measured numbers (run pytest
with -s to see them); a failed assertion marks the criterion failed.
"""

import random
import time
from fractions import Fraction

from mortality2x2 import Instance, Mat2, Mortal, decide, fuzz_compare, verify_witness
from mortality2x2.decider import cross_split, to_two_singular
from mortality2x2.linalg import CharPoly, char_poly, is_scalar_multiple, mat_pow
from mortality2x2.oracle import random_instance
from mortality2x2.pairs import Witness, decide_pair, iter_recurrence
from mortality2x2.spectral import cheb_solve, power_similar_identity
from helpers import (
    REGIMES,
    answer_set,
    brute_force_cheb,
    doubled_cosine_track,
    plant_pair,
    rand_invertible_int,
    rand_nonperiodic_invertible,
    rand_rank_one,
    rand_rat,
    scan_pair_zeros,
)


def mat(rows):
    return Mat2.from_rows(rows)


def test_criterion_1_oracle_agreement():
    t0 = time.perf_counter()
    report = fuzz_compare(count=10_000, seed=42, bound=8)
    elapsed = time.perf_counter() - t0
    assert report.witness_failures == 0
    assert report.immortal_contradicted == 0
    assert report.search_misses == 0
    assert report.unknown == 0
    assert elapsed < 120
    print(
        f"PASS criterion 1: oracle agreement on 10000 seeded instances "
        f"({report.mortal} mortal / {report.immortal} immortal, "
        f"0 contradictions, {elapsed:.1f}s)"
    )


def test_criterion_2_planted_witness_recovery():
    t0 = time.perf_counter()
    recovered = 0
    for name, v in REGIMES.items():
        for k_star in range(1, 41):
            n = plant_pair(v, k_star)
            instance = Instance((n, v))
            verdict = decide(instance)
            assert isinstance(verdict, Mortal), (name, k_star, verdict)
            assert verdict.exponent_witness == (0, k_star, 0), (name, k_star, verdict)
            assert verdict.witness == (0,) + (1,) * k_star + (0,)
            assert verify_witness(instance, verdict.witness)
            recovered += 1
    elapsed = time.perf_counter() - t0
    assert recovered == 120
    assert elapsed < 10
    print(
        f"PASS criterion 2: planted-witness recovery 120/120 across three "
        f"spectral regimes, exponents 1..40 ({elapsed:.1f}s)"
    )


def test_criterion_3_power_similarity_identity():
    rng = random.Random(333)
    identity = Mat2.identity()
    checked = 0
    for _ in range(500):
        v = rand_nonperiodic_invertible(rng)
        states = []
        for state in iter_recurrence(char_poly(v)):
            if state.k > 30:
                break
            states.append(state)
        assert len(states) == 30  # the iteration never becomes undefined
        assert len({state.r for state in states}) == 30  # injective without periodicity
        for state in states:
            shifted = v + identity.scale(state.r)
            assert is_scalar_multiple(mat_pow(v, state.k), shifted) is not None
            checked += 1
    print(
        f"PASS criterion 3: V^k matches a nonzero multiple of V + r_k I on "
        f"{checked} exact checks (500 matrices, k <= 30, values pairwise distinct)"
    )


def test_criterion_4_minimal_order_law():
    curated = [
        (mat([[3, 0], [0, 3]]), 1, Fraction(3)),
        (mat([[0, -1], [1, 0]]), 2, Fraction(-1)),
        (mat([[1, -1], [1, 0]]), 3, Fraction(-1)),
        (mat([[1, -1], [1, 1]]), 4, Fraction(-4)),
        (mat([[2, -1], [1, 1]]), 6, Fraction(-27)),
    ]
    identity = Mat2.identity()
    seen_orders = set()
    for a, order, scalar in curated:
        result = power_similar_identity(a)
        assert result is not None and (result.order, result.scalar) == (order, scalar)
        assert mat_pow(a, order) == identity.scale(scalar)
        seen_orders.add(order)
    assert seen_orders == {1, 2, 3, 4, 6}

    rng = random.Random(444)
    with_order = 0
    for _ in range(10_000):
        a = rand_invertible_int(rng, -5, 5)
        result = power_similar_identity(a)
        if result is None:
            continue
        with_order += 1
        assert result.order in {1, 2, 3, 4, 6}
        assert result.scalar != 0
        assert mat_pow(a, result.order) == identity.scale(result.scalar)
    print(
        f"PASS criterion 4: minimal orders always in {{1,2,3,4,6}} "
        f"({with_order}/10000 random matrices have one; all five orders "
        f"witnessed by curated examples)"
    )


def test_criterion_5_cosine_equation_solver():
    t0 = time.perf_counter()
    rng = random.Random(555_000)

    def clamp(x):
        return max(Fraction(-1), min(Fraction(1), x))

    for _ in range(1000):
        p = clamp(rand_rat(rng, 8, 8))
        q = clamp(rand_rat(rng, 8, 8))
        assert answer_set(cheb_solve(p, q), 50) == brute_force_cheb(p, q, 50), (p, q)

    law_checked = 0
    while law_checked < 200:
        p = clamp(rand_rat(rng, 8, 8))
        m = (2 * p).denominator
        if m == 1:
            continue
        law_checked += 1
        track = doubled_cosine_track(p, 20)
        for n in range(1, 21):
            assert track[n].denominator == m**n
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    print(
        f"PASS criterion 5: solver agrees with brute force on 1000 queries "
        f"(n <= 50) and the denominator-growth law holds on 200 tracks "
        f"({elapsed:.1f}s)"
    )


# Frozen closed forms for the first twelve values of the shift coefficient
# r_k (r_1 = 0, r_k = c/(b - r_{k-1})), as rational functions of (b, c).
_CLOSED_FORMS = {
    1: lambda b, c: Fraction(0),
    2: lambda b, c: c / b,
    3: lambda b, c: c * b / (b**2 - c),
    4: lambda b, c: c * (-(b**2) + c) / (-(b**3) + 2 * b * c),
    5: lambda b, c: c * b * (b**2 - 2 * c) / (b**4 - 3 * b**2 * c + c**2),
    6: lambda b, c: c * (b**4 - 3 * b**2 * c + c**2) / (b**5 - 4 * b**3 * c + 3 * b * c**2),
    7: lambda b, c: -3 * c * b * (-(b**2) + c) * (-(b**2) / 3 + c)
    / (-(b**6) + 5 * b**4 * c - 6 * b**2 * c**2 + c**3),
    8: lambda b, c: c * (-(b**6) + 5 * b**4 * c - 6 * b**2 * c**2 + c**3)
    / (-(b**7) + 6 * b**5 * c - 10 * b**3 * c**2 + 4 * b * c**3),
    9: lambda b, c: c * b * (b**6 - 6 * b**4 * c + 10 * b**2 * c**2 - 4 * c**3)
    / (b**8 - 7 * b**6 * c + 15 * b**4 * c**2 - 10 * b**2 * c**3 + c**4),
    10: lambda b, c: c * (b**8 - 7 * b**6 * c + 15 * b**4 * c**2 - 10 * b**2 * c**3 + c**4)
    / (b * (b**8 - 8 * b**6 * c + 21 * b**4 * c**2 - 20 * b**2 * c**3 + 5 * c**4)),
    11: lambda b, c: c * b * (b**8 - 8 * b**6 * c + 21 * b**4 * c**2 - 20 * b**2 * c**3 + 5 * c**4)
    / (b**10 - 9 * b**8 * c + 28 * b**6 * c**2 - 35 * b**4 * c**3 + 15 * b**2 * c**4 - c**5),
    12: lambda b, c: c
    * (-(b**10) + 9 * b**8 * c - 28 * b**6 * c**2 + 35 * b**4 * c**3 - 15 * b**2 * c**4 + c**5)
    / (
        -(b**11)
        + 10 * b**9 * c
        - 36 * b**7 * c**2
        + 56 * b**5 * c**3
        - 35 * b**3 * c**4
        + 6 * b * c**5
    ),
}


def test_criterion_6_closed_forms_match_iteration():
    rng = random.Random(666_000)
    accepted = 0
    while accepted < 100:
        b = rand_rat(rng, 6, 4)
        c = rand_rat(rng, 6, 4)
        if c == 0:
            continue
        values = []
        for state in iter_recurrence(CharPoly(b, c)):
            if state.k > 12:
                break
            values.append(state.r)
        if len(values) < 12:
            continue  # an undefined step; resample
        try:
            table = [_CLOSED_FORMS[k](b, c) for k in range(1, 13)]
        except ZeroDivisionError:
            continue
        assert table == values, (b, c)
        accepted += 1
    print(
        "PASS criterion 6: tabulated closed forms for r_1..r_12 match the "
        "iteration at 100 random (b, c)"
    )


def test_criterion_7_instance_reductions():
    rng = random.Random(777_000)
    mortal_count = 0
    for _ in range(2000):
        inst = random_instance(rng)
        whole = isinstance(decide(inst), Mortal)
        parts = any(isinstance(decide(sub), Mortal) for sub in to_two_singular(inst))
        assert whole == parts, inst
        mortal_count += whole

    split_checked = 0
    for _ in range(500):
        b1 = rand_rank_one(rng, 3, 3)
        b2 = rand_rank_one(rng, 3, 3)
        v = rand_invertible_int(rng, -3, 3)
        left, right = cross_split(b1, b2)
        assert scan_pair_zeros(b1, v, b2, 10) == scan_pair_zeros(left, v, left, 10)
        assert scan_pair_zeros(b2, v, b1, 10) == scan_pair_zeros(right, v, right, 10)
        forward = decide_pair(b1, v, b2)
        folded = decide_pair(left, v, left)
        assert isinstance(forward, Witness) == isinstance(folded, Witness)
        if isinstance(forward, Witness):
            assert forward.k == folded.k
        backward = decide_pair(b2, v, b1)
        folded_back = decide_pair(right, v, right)
        assert isinstance(backward, Witness) == isinstance(folded_back, Witness)
        if isinstance(backward, Witness):
            assert backward.k == folded_back.k
        split_checked += 1
    print(
        f"PASS criterion 7: decide matches the two-singular disjunction on "
        f"2000 instances ({mortal_count} mortal) and cross-split equivalence "
        f"holds on {split_checked} triples (oracle bound 10)"
    )


def test_criterion_8_witness_integrity():
    rng = random.Random(888_000)
    verified = 0

    for _ in range(2000):
        inst = random_instance(rng)
        verdict = decide(inst)
        if isinstance(verdict, Mortal):
            assert verify_witness(inst, verdict.witness)
            verified += 1

    for v in REGIMES.values():
        for k_star in range(1, 41):
            n = plant_pair(v, k_star)
            inst = Instance((n, v))
            verdict = decide(inst)
            assert isinstance(verdict, Mortal)
            assert verify_witness(inst, verdict.witness)
            verified += 1

    curated = [
        Instance((Mat2.zero(),)),
        Instance((mat([[1, 0], [0, 0]]), mat([[0, 0], [1, 0]]))),
        Instance((mat([[7, -8], [0, 0]]), mat([[2, 0], [1, 1]]))),
    ]
    for inst in curated:
        verdict = decide(inst)
        assert isinstance(verdict, Mortal)
        assert verify_witness(inst, verdict.witness)
        verified += 1

    report = fuzz_compare(count=1000, seed=808, bound=8)
    assert report.witness_failures == 0

    print(
        f"PASS criterion 8: {verified} mortal verdicts re-verified exactly; "
        f"fuzz harness reports zero witness failures"
    )
