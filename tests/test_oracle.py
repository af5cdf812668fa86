"""Bounded brute-force search and the fuzz harness."""

import random
from collections import deque
from fractions import Fraction

import pytest

from mortality2x2 import (
    EntryRange,
    Immortal,
    Instance,
    InternalError,
    Mat2,
    Mortal,
    Unknown,
    fuzz_compare,
    search,
)
from mortality2x2 import oracle
from mortality2x2.linalg import canon_int_mat, int_mat_mul, to_int_mat
from mortality2x2.oracle import random_instance
from helpers import exhaustive_search, rand_invertible_int, rand_rank_one


def mat(rows):
    return Mat2.from_rows(rows)


def _full_matrix_search(instance: Instance, max_len: int, dedup: bool = True):
    """Reference search on full matrices: every state a `canon_int_mat`
    4-tuple and every step an `int_mat_mul`, in `search`'s breadth-first
    order; with dedup=False, no state is dropped."""
    mats = [to_int_mat(m) for m in instance.matrices]
    seen = set()
    queue = deque()
    for i, m in enumerate(mats):
        if m == (0, 0, 0, 0):
            return (i,)
        c = canon_int_mat(m)
        if not (dedup and c in seen):
            seen.add(c)
            queue.append((c, (i,)))
    while queue:
        state, word = queue.popleft()
        if len(word) >= max_len:
            break
        for j, m in enumerate(mats):
            product = int_mat_mul(state, m)
            if product == (0, 0, 0, 0):
                return word + (j,)
            c = canon_int_mat(product)
            if not (dedup and c in seen):
                seen.add(c)
                queue.append((c, word + (j,)))
    return None


def _two_invertible(rng):
    members = [rand_rank_one(rng, 3, 3) for _ in range(rng.randint(1, 3))]
    for _ in range(2):
        members.insert(rng.randint(0, len(members)), rand_invertible_int(rng, -3, 3))
    return Instance(tuple(members))


def _zero_member(rng):
    members = list(random_instance(rng).matrices)
    members.insert(rng.randint(0, len(members)), Mat2.zero())
    return Instance(tuple(members))


def _scaled_copies(rng):
    # one singular member several times, as itself and scaled by +-p/q, so
    # many words share a class; with another singular and an invertible
    n = rand_rank_one(rng, 3, 3)
    members = [n] + [n.scale(Fraction(rng.choice((-5, -2, 1, 3)), rng.randint(1, 5))) for _ in range(2)]
    members += [rand_rank_one(rng, 3, 3), rand_invertible_int(rng, -3, 3)][: rng.randint(0, 2)]
    rng.shuffle(members)
    return Instance(tuple(members))


INSTANCE_KINDS = {
    "default": random_instance,
    "entry7x5": lambda rng: random_instance(rng, EntryRange(7, 5)),
    "one-invertible": lambda rng: random_instance(rng, invertible_probability=1.0),
    "two-invertible": _two_invertible,
    "zero-member": _zero_member,
    "scaled-copies": _scaled_copies,
}


@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_search_words_match_the_full_matrix_search(kind):
    # the same word, None included, at every bound: the rank-1 factors keep
    # exactly the classes and the queue order of the full matrices
    rng = random.Random(f"words-{kind}")
    found = 0
    for _ in range(60):
        inst = INSTANCE_KINDS[kind](rng)
        for bound in range(1, 9):
            word = search(inst, bound)
            assert word == _full_matrix_search(inst, bound), (inst, bound)
        found += word is not None
    assert 0 < found < 60 or kind == "zero-member"


def test_rank_one_step_after_an_invertible_state():
    # V N1 is an invertible state times a rank-1 member, kept as (V u1, w1),
    # then times the rank-1 N2.  Every product is nonzero (V^2 = -I), but
    # (V u1) . u2 == 0, so a step that confused u and w would report (0, 1, 2).
    v = mat([[0, -1], [1, 0]])  # V u1 = (-2, 1)
    n1 = mat([[1, 3], [2, 6]])  # u1 = (1, 2), w1 = (1, 3)
    n2 = mat([[1, 0], [2, 0]])  # u2 = (1, 2), w2 = (1, 0)
    inst = Instance((v, n1, n2))
    for bound in range(1, 9):
        assert search(inst, bound) is None
        assert _full_matrix_search(inst, bound) is None
    # V N1 N3 is zero exactly when N1 N3 is, so the shorter word is returned
    n3 = mat([[3, 0], [-1, 0]])  # u3 = (3, -1), w1 . u3 == 0
    assert search(Instance((v, n1, n3)), 3) == (1, 2)


def test_search_examples():
    assert search(Instance((Mat2.zero(),)), 1) == (0,)
    planted = Instance((mat([[7, -8], [0, 0]]), mat([[2, 0], [1, 1]])))
    assert search(planted, 5) == (0, 1, 1, 1, 0)
    assert search(planted, 4) is None
    immortal = Instance((mat([[1, 0], [0, 0]]), mat([[1, -2], [1, 0]])))
    assert search(immortal, 12) is None
    with pytest.raises(ValueError):
        search(planted, 0)


def test_search_returns_shortest_and_lexicographic():
    # both (0,1) and (1,0) are zero; lexicographic tie-break picks (0,1)
    a = mat([[1, 0], [0, 0]])
    b = mat([[0, 0], [0, 1]])
    assert (a * b).is_zero() and (b * a).is_zero()
    assert search(Instance((a, b)), 4) == (0, 1)


def test_search_minimality_against_undeduplicated_reference():
    rng = random.Random(321)
    for _ in range(300):
        members = [rand_rank_one(rng, 2, 2) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.5:
            members.append(rand_invertible_int(rng, -2, 2))
        inst = Instance(tuple(members[:2]))
        got = search(inst, 6)
        want = exhaustive_search(inst, 6)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert len(got) == len(want)
            assert got == want


def test_search_dedup_soundness():
    rng = random.Random(654)
    for _ in range(200):
        members = [rand_rank_one(rng, 2, 2) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            members.append(rand_invertible_int(rng, -2, 2))
        inst = Instance(tuple(members))
        with_dedup = search(inst, 5)
        without = _full_matrix_search(inst, 5, dedup=False)
        assert (with_dedup is None) == (without is None)
        if with_dedup is not None:
            assert with_dedup == without


def test_search_determinism():
    rng = random.Random(111)
    for _ in range(50):
        members = [rand_rank_one(rng, 3, 3) for _ in range(rng.randint(1, 4))]
        inst = Instance(tuple(members))
        assert search(inst, 6) == search(inst, 6)


def test_random_instance_shape():
    rng = random.Random(8)
    for _ in range(200):
        inst = random_instance(rng)
        assert 1 <= len(inst.matrices) <= 5
        assert len(inst.invertible_indices) <= 1
        assert len(inst.singular_indices) >= 1


def test_fuzz_compare_trivial_zero_instance():
    # entry range compressed to zero forces the zero matrix everywhere
    report = fuzz_compare(
        count=1, seed=5, bound=2, entry_range=EntryRange(0, 1), invertible_probability=0.0
    )
    assert report.mortal == 1
    assert report.contradictions == 0


def test_fuzz_compare_small_run_is_clean_and_reproducible():
    first = fuzz_compare(count=300, seed=97, bound=8)
    second = fuzz_compare(count=300, seed=97, bound=8)
    assert first.contradictions == 0
    assert first.unknown == 0
    assert (first.mortal, first.immortal, first.mortal_unconfirmed) == (
        second.mortal,
        second.immortal,
        second.mortal_unconfirmed,
    )


def test_fuzz_compare_tiny_bound_only_defers():
    report = fuzz_compare(count=100, seed=3, bound=1)
    assert report.contradictions == 0


def test_fuzz_compare_validation():
    with pytest.raises(ValueError):
        fuzz_compare(count=0, seed=1)
    for bad in ((-1, 1), (1, 0)):
        with pytest.raises(ValueError):
            EntryRange(*bad)
    # numerators in {0} can never give the invertible member it may draw
    with pytest.raises(ValueError):
        fuzz_compare(count=1, seed=1, entry_range=EntryRange(0, 1))


def test_fuzz_check_rejects_a_non_verdict(monkeypatch):
    # verdicts are classified by an explicit check, which `python -O` keeps
    monkeypatch.setattr(oracle, "decide", lambda instance, oracle_bound: None)
    with pytest.raises(InternalError):
        fuzz_compare(count=1, seed=0)


def test_fuzz_report_counts_every_outcome(monkeypatch):
    # one scripted outcome per instance, in this order, repeated: every
    # counter moves, and the 30 failures overflow the 20-seed cap
    cases = (
        # (verdict, search result, verify_witness result, failure)
        (Mortal((0, 0), "scripted"), (0, 0), False, True),  # witness failure
        (Immortal("scripted"), (0,), True, True),  # immortal contradicted
        (Mortal((0,) * 8, "scripted"), None, True, True),  # search miss at the bound
        (Mortal((0,) * 9, "scripted"), None, True, False),  # beyond the bound
        (Mortal((0, 0), "scripted"), (0, 0), True, False),
        (Immortal("scripted"), None, True, False),
        (Unknown(8), None, True, False),
    )
    calls = []

    def fake_decide(instance, oracle_bound):
        calls.append(cases[len(calls) % len(cases)])
        return calls[-1][0]

    monkeypatch.setattr(oracle, "decide", fake_decide)
    monkeypatch.setattr(oracle, "search", lambda instance, max_len: calls[-1][1])
    monkeypatch.setattr(oracle, "verify_witness", lambda instance, word: calls[-1][2])
    count, seed = 10 * len(cases), 13
    report = fuzz_compare(count=count, seed=seed, bound=8)

    assert len(calls) == count
    assert (report.mortal, report.immortal, report.unknown) == (40, 20, 10)
    assert report.witness_failures == 10
    assert report.immortal_contradicted == 10
    assert report.search_misses == 10
    assert report.mortal_unconfirmed == 10
    assert report.contradictions == 30
    base = random.Random(seed)
    child_seeds = [base.getrandbits(63) for _ in range(count)]
    failing = [s for i, s in enumerate(child_seeds) if cases[i % len(cases)][3]]
    assert len(report.failing_seeds) == 20
    assert report.failing_seeds == failing[:20]
