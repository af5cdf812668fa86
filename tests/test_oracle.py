"""Bounded brute-force search and the fuzz harness."""

import hashlib
import os
import pickle
import random
import sys
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
    decide,
    fuzz_compare,
    search,
    verify_witness,
)
from mortality2x2 import oracle
from mortality2x2.linalg import Vec2, canon_int_mat, int_form, int_mat_mul, outer, rank_one_factors, to_int_mat
from mortality2x2.oracle import random_instance
from helpers import (
    exhaustive_search,
    rand_invertible_int,
    rand_nonperiodic_invertible,
    rand_rank_one,
    rand_rat,
)


def mat(rows):
    return Mat2.from_rows(rows)


def _full_matrix_search(instance: Instance, max_len: int, dedup: bool = True):
    """Reference search on full matrices: every state a `canon_int_mat`
    4-tuple and every step an `int_mat_mul`, breadth-first in (length, lex)
    order from every member; with dedup=False, no state is dropped."""
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


def _rand_vec(rng):
    while True:
        v = Vec2(rand_rat(rng, 3, 3), rand_rat(rng, 3, 3))
        if not v.is_zero():
            return v


def _shared_row(rng):
    # 2-3 singular members u_i w^T with one w and different u_i, plus an
    # invertible member half the time: rows merge them into one state
    w = _rand_vec(rng)
    count, us = rng.randint(2, 3), []
    while len(us) < count:
        u = _rand_vec(rng)
        if u not in us:
            us.append(u)
    members = [outer(u, w) for u in us]
    if rng.random() < 0.5:
        members.insert(rng.randint(0, len(members)), rand_invertible_int(rng, -3, 3))
    return Instance(tuple(members))


def _three_invertible(rng):
    members = [rand_rank_one(rng, 3, 3) for _ in range(rng.randint(1, 3))]
    for _ in range(3):
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
    "shared-row": _shared_row,
    "three-invertible": _three_invertible,
}


@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_search_words_match_the_full_matrix_search(kind):
    # the same word, None included, at every bound: both return the
    # (length, lex)-first zero word, though `search` keeps only rows of
    # words that start with a singular member
    rng = random.Random(f"words-{kind}")
    found = 0
    for _ in range(60):
        inst = INSTANCE_KINDS[kind](rng)
        for bound in range(1, 9):
            word = search(inst, bound)
            assert word == _full_matrix_search(inst, bound), (inst, bound)
        found += word is not None
    assert 0 < found < 60 or kind == "zero-member"


@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_decide_again_and_search_after_decide_match_a_fresh_instance(kind):
    # an Instance keeps only its members' integer forms from one call to the
    # next, so a second decide and a search on a decided instance answer as
    # on a fresh equal one
    rng = random.Random(f"reuse-{kind}")
    for _ in range(60):
        inst = INSTANCE_KINDS[kind](rng)
        verdict = decide(inst)
        assert decide(inst) == verdict == decide(Instance(inst.matrices)), inst
        assert search(inst, 8) == search(Instance(inst.matrices), 8), inst


@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_checkers_run_no_pair_engine_code(kind):
    # the checks that `fuzz_compare` runs against `decide` rest on `linalg`
    # alone: on a fresh Instance, its integer forms, the search and the
    # witness check call no function defined in pairs.py
    rng = random.Random(f"layers-{kind}")
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_code.co_name}")

    for _ in range(40):
        inst = INSTANCE_KINDS[kind](rng)
        verdict = decide(inst)
        fresh = Instance(inst.matrices)
        sys.setprofile(profile)
        try:
            fresh.forms
            search(fresh, 8)
            verified = not isinstance(verdict, Mortal) or verify_witness(fresh, verdict.witness)
        finally:
            sys.setprofile(None)
        assert verified, inst
    assert "linalg.py:int_form" in called
    assert not [name for name in called if name.startswith("pairs.py:")], sorted(called)


def test_no_word_starts_with_an_invertible_member():
    # V N1 N2 is nonzero (V^2 = -I), yet (V u1) . u2 == 0, so a search that
    # tested the column V u1 of V N1 against u2 would report (0, 1, 2).  The
    # search builds no word that starts with V: its states are rows w X.
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


def test_search_builds_one_row_per_class(monkeypatch):
    # every state `search` builds is one `canon_int_mat` of a row w^T M
    calls = []
    monkeypatch.setattr(oracle, "canon_int_mat", lambda a: calls.append(a) or canon_int_mat(a))
    rng = random.Random(77)
    # no shortest zero word starts with an invertible member, so invertible
    # members alone give no state at all, where a search on products would
    # enumerate the 6 classes of the dihedral group they generate in PGL2
    r = mat([[0, -1], [1, -1]])  # order 3 in PGL2
    inst = Instance((r, mat([[0, 1], [1, 0]]), r * r))
    assert search(inst, 50) is None
    assert calls == []
    # one invertible member V: the rows at length l are w_i V^(l-1), at most
    # one per singular member, and each takes one step
    tight = 0
    for _ in range(100):
        members = [rand_rank_one(rng, 3, 3) for _ in range(rng.randint(1, 4))]
        rows = {rank_one_factors(int_form(m))[1] for m in members}
        if len(rows) < len(members):
            continue
        members.insert(rng.randint(0, len(members)), rand_nonperiodic_invertible(rng))
        inst = Instance(tuple(members))
        for bound in range(1, 11):
            calls.clear()
            word = search(inst, bound)
            assert len(calls) <= len(rows) * (bound - 1), (inst, bound)
            tight += word is None and len(calls) == len(rows) * (bound - 1)
    assert tight > 0


def test_rank_one_states_are_keyed_by_their_row():
    # N1 = u w1^T and N2 = u w2^T share u, and only N2 N3 is zero: a search
    # keyed by u would keep N1 alone and miss (1, 2)
    n1 = mat([[1, 1], [0, 0]])  # u = (1, 0), w1 = (1, 1)
    n2 = mat([[1, 0], [0, 0]])  # u = (1, 0), w2 = (1, 0)
    n3 = mat([[0, 0], [1, 2]])  # u3 = (0, 1), w3 = (1, 2); w2 . u3 == 0 != w1 . u3
    inst = Instance((n1, n2, n3))
    assert search(inst, 2) == _full_matrix_search(inst, 2) == (1, 2)


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


# sha256 of 2,000 draws from random.Random(2024) per parameterisation, every
# entry hashed as its (numerator, denominator) pair: the benchmark's pools and
# the answers digest rest on these exact draws
DRAW_DIGESTS = {
    "default": (
        {},
        "f05da3b9b32f6f8f4151fa479b3e372a054d4943e2c14eaa51cf28abe89e3dce",
    ),
    "entry7x5": (
        {"entry_range": EntryRange(7, 5)},
        "f0b8dfd2543d7626fff65733522aad6513864519066296ce087888065fb7e5f4",
    ),
    "zero-entries": (
        {"entry_range": EntryRange(0, 1), "invertible_probability": 0.0},
        "0eea3b0f51869fcdb908f6002177cad39301e5b2de1850419965bb1d41b3b9be",
    ),
    "invertible": (
        {"invertible_probability": 1.0},
        "4c01430238f350a28c8fb56b3bf0053e6777c5f3a25cb12ed624ff54d2996e64",
    ),
    "one-singular": (
        {"max_singulars": 1},
        "2cc44a2d35d7d96f086971206b1d78d5ab455e6cb95ce87484c37a405d723591",
    ),
    "six-singulars": (
        {"max_singulars": 6, "entry_range": EntryRange(12, 9)},
        "81ab3b9beace5f4561f3c11f14325b764338acf2f47ce95945965317d3dc7432",
    ),
}


@pytest.mark.parametrize("kind", DRAW_DIGESTS)
def test_random_instance_draws_are_pinned(kind):
    kwargs, expected = DRAW_DIGESTS[kind]
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for _ in range(2000):
        instance = random_instance(rng, **kwargs)
        pairs = [(e.numerator, e.denominator) for m in instance.matrices for e in m.entries()]
        digest.update(repr(pairs).encode())
    assert digest.hexdigest() == expected


# every pinned parameterisation, and a range whose entry values outnumber the
# entry table, so that drawing from it evicts
DRAW_KWARGS = {**{kind: kwargs for kind, (kwargs, _) in DRAW_DIGESTS.items()},
               "entry1000x1000": {"entry_range": EntryRange(1000, 1000)}}


def _reference_instance(rng, entry_range=EntryRange(), max_singulars=4, invertible_probability=0.5):
    """`random_instance` as written with `randint` and a fresh `Fraction` per
    entry, its forms left to `Instance.forms`."""
    top, den = entry_range.max_numerator, entry_range.max_denominator

    def rats():
        return [v for _ in range(4) for v in (rng.randint(-top, top), rng.randint(1, den))]

    mats = []
    for _ in range(rng.randint(1, max_singulars)):
        a, b, c, d, e, f, g, h = rats()
        mats.append(Mat2(Fraction(a * e, b * f), Fraction(a * g, b * h),
                         Fraction(c * e, d * f), Fraction(c * g, d * h)))
    if rng.random() < invertible_probability:
        while True:
            a, b, c, d, e, f, g, h = rats()
            m = Mat2(Fraction(a, b), Fraction(c, d), Fraction(e, f), Fraction(g, h))
            if m.det() != 0:
                break
        mats.insert(rng.randint(0, len(mats)), m)
    return Instance(tuple(mats))


@pytest.mark.parametrize("kind", DRAW_KWARGS)
def test_random_instance_returns_its_forms_set(kind):
    # set at the draw from the entries' reduced integers, each the member's
    # int_form; in every other way the instance behaves as `Instance(matrices)`
    kwargs, rng, ref = DRAW_KWARGS[kind], random.Random(kind), random.Random(kind)
    for _ in range(300):
        inst = random_instance(rng, **kwargs)
        assert "forms" in vars(inst)
        fresh = Instance(inst.matrices)
        assert inst.forms == tuple(int_form(m) for m in inst.matrices) == fresh.forms
        assert inst == fresh and fresh == inst and hash(inst) == hash(fresh)
        assert repr(inst) == repr(fresh)
        loaded = pickle.loads(pickle.dumps(inst))
        assert loaded == fresh and repr(loaded) == repr(fresh) and loaded.forms == inst.forms
        # the same draws as a fresh Fraction per entry, entry for entry
        expected = _reference_instance(ref, **kwargs)
        assert inst == expected and repr(inst) == repr(expected)
        assert all(type(e) is Fraction for m in inst.matrices for e in m.entries())
    assert rng.getstate() == ref.getstate()


def test_entry_table_stays_within_its_bound():
    # 2,000 draws from EntryRange(1000, 1000) take far more entry values than
    # the table holds, so it evicts; every entry it hands out is the Fraction
    # of its draw, with that Fraction's reduced numerator and denominator
    drawn, table = [], oracle._entry

    def recording(numerator, denominator):
        entry = table(numerator, denominator)
        drawn.append(((numerator, denominator), entry))
        return entry

    before = table.cache_info()
    rng = random.Random(1000)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_entry", recording)
        for _ in range(2000):
            random_instance(rng, EntryRange(1000, 1000))
    info = table.cache_info()
    assert info.maxsize == oracle.ENTRY_TABLE_SIZE
    assert info.currsize <= oracle.ENTRY_TABLE_SIZE
    assert info.misses - before.misses > 2 * oracle.ENTRY_TABLE_SIZE
    assert len({key for key, _ in drawn}) > 2 * oracle.ENTRY_TABLE_SIZE
    for (numerator, denominator), (x, p, q) in drawn:
        fresh = Fraction(numerator, denominator)
        assert type(x) is Fraction and x == fresh and (p, q) == (fresh.numerator, fresh.denominator)


def test_entries_of_one_draw_are_shared_across_calls():
    # under the default range every entry value is kept: an entry drawn again,
    # by another call, is the same object, so a pool of instances holds at
    # most one Fraction per unreduced draw (a e, b f) or (a, b), of which
    # there are 78
    first = random_instance(random.Random(5))
    again = random_instance(random.Random(5))
    assert first == again and first.matrices[0] is not again.matrices[0]
    for m, n in zip(first.matrices, again.matrices):
        assert all(x is y for x, y in zip(m.entries(), n.entries()))
    rng = random.Random(6)
    pool = [random_instance(rng) for _ in range(2000)]
    entries = [e for inst in pool for m in inst.matrices for e in m.entries()]
    assert len(entries) > 10_000
    assert len({id(e) for e in entries}) <= 78


@pytest.mark.parametrize(
    "name, value",
    [
        ("max_singulars", 0),
        ("max_singulars", -3),
        ("invertible_probability", 1.5),
        ("invertible_probability", -1.0),
        ("invertible_probability", float("nan")),
    ],
)
def test_random_instance_rejects_bad_arguments(name, value):
    # refused by name before any draw; NaN compares false with every bound,
    # so an unchecked NaN would act as 0
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match=name):
        random_instance(rng, **{name: value})
    assert rng.getstate() == state


@pytest.mark.parametrize(
    "name, make_kwargs",
    [
        ("max_singulars", lambda: {"max_singulars": 4.0}),
        ("max_singulars", lambda: {"max_singulars": Fraction(4)}),
        ("max_singulars", lambda: {"max_singulars": float("nan")}),
        ("max_singulars", lambda: {"max_singulars": 2.5}),
        ("max_singulars", lambda: {"max_singulars": True}),
        ("max_numerator", lambda: {"entry_range": EntryRange(3.0, 3)}),
        ("max_denominator", lambda: {"entry_range": EntryRange(3, 3.0)}),
        ("max_numerator", lambda: {"entry_range": EntryRange(max_numerator="3")}),
    ],
)
def test_random_instance_rejects_non_integer_bounds(name, make_kwargs):
    # refused by name before any draw, with the same TypeError on every
    # Python: not drawn with a warning (3.10-3.11) or stopped mid-draw (3.12+)
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(TypeError, match=name):
        random_instance(rng, **make_kwargs())
    assert rng.getstate() == state


# diag(1, -1) and -I generate a group of four: a search on this instance runs
# out of rows whatever its bound, so a bound that slips through the check
# makes a test fail rather than hang
FINITE_GROUP = Instance((mat([[1, 0], [0, 0]]), mat([[1, 0], [0, -1]]), mat([[-1, 0], [0, -1]])))
BOUNDED_CALLS = {
    "max_len": lambda v: search(FINITE_GROUP, v),
    "count": lambda v: fuzz_compare(count=v, seed=1),
    "bound": lambda v: fuzz_compare(count=1, seed=1, bound=v),
    "max_numerator": lambda v: EntryRange(max_numerator=v),
    "max_denominator": lambda v: EntryRange(max_denominator=v),
}


@pytest.mark.parametrize("value", [float("nan"), 2.5, Fraction(4), True], ids=repr)
@pytest.mark.parametrize("name", BOUNDED_CALLS)
def test_counts_and_bounds_must_be_ints(monkeypatch, name, value):
    # one rule for every count and bound, checked before any draw or search;
    # NaN compares false with every limit, so a NaN bound once let the search
    # on an infinite group run forever
    monkeypatch.setattr(oracle, "random_instance", lambda rng, entry_range: FINITE_GROUP)
    with pytest.raises(TypeError, match=f"^{name} must be an int$"):
        BOUNDED_CALLS[name](value)


@pytest.mark.parametrize("n", [*range(1, 71), 2**40 + 3])
def test_below_draws_as_randrange(n):
    # the same values and the same generator state, also for n = 1, which
    # still consumes getrandbits(1) draws, and for a multi-word getrandbits
    ours, theirs = random.Random(n), random.Random(n)
    assert [oracle._below(ours.getrandbits, n) for _ in range(300)] == [theirs.randrange(n) for _ in range(300)]
    assert ours.getstate() == theirs.getstate()


def test_random_instance_draws_only_through_getrandbits_and_random():
    class Strict(random.Random):
        def randrange(self, *args, **kwargs):
            raise AssertionError("randrange called")

        randint = randrange

    for kwargs, _ in DRAW_DIGESTS.values():
        strict, plain = Strict(5), random.Random(5)
        for _ in range(50):
            assert random_instance(strict, **kwargs) == random_instance(plain, **kwargs)
        assert strict.getstate() == plain.getstate()


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("entry_range", [EntryRange(), EntryRange(7, 5)], ids=["default", "entry7x5"])
def test_fuzz_compare_draws_are_pinned(monkeypatch, seed, entry_range):
    # instance i is `random_instance` on the i-th 63-bit child seed drawn
    # from `seed`, the rule by which the benchmark pools and the answers
    # corpus rebuild fuzz instances on their own
    drawn = []

    def record(instance, oracle_bound):
        drawn.append(instance)
        return decide(instance, oracle_bound)

    monkeypatch.setattr(oracle, "decide", record)
    count = 50
    fuzz_compare(count=count, seed=seed, entry_range=entry_range)
    base = random.Random(seed)
    child_seeds = [base.getrandbits(63) for _ in range(count)]
    assert drawn == [random_instance(random.Random(c), entry_range) for c in child_seeds]


@pytest.mark.parametrize("bound", [0, -1])
def test_fuzz_compare_refuses_a_search_bound_below_one(bound):
    # named as fuzz_compare's own argument, not search's max_len
    with pytest.raises(ValueError, match="^bound must be at least 1$"):
        fuzz_compare(count=1, seed=1, bound=bound)


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
