"""Set-level decisions, witness verification, and instance reductions."""

import copy
import os
import pickle
import random
import subprocess
import sys
import textwrap
import typing
from collections import Counter
from dataclasses import is_dataclass, replace
from fractions import Fraction
from pathlib import Path

import pytest

import mortality2x2

from mortality2x2 import Immortal, Instance, Mat2, Mortal, RankError, Unknown, decide, search, verify_witness
from mortality2x2.linalg import Vec2, int_form, is_scalar_multiple, mat_pow, outer, rank_one_factors
from mortality2x2.pairs import SIEVE_PRIMES, Witness, analyze_inner, decide_pair, endpoint, orbit_sieve
from mortality2x2.decider import (
    IMMORTAL_ALL_INVERTIBLE,
    IMMORTAL_NO_ZERO_PAIR,
    IMMORTAL_PAIRS_REFUSED,
    MORTAL_PAIR_EXPONENT,
    MORTAL_TWO_STEP,
    MORTAL_ZERO_MEMBER,
    SIEVE_MIN_SINGULARS,
    Verdict,
    cross_split,
    pad_singular,
    to_two_singular,
)
from helpers import (
    REGIMES,
    plant_pair,
    rand_invertible_int,
    rand_mat,
    rand_nonperiodic_invertible,
    rand_rank_one,
    rand_rat,
)


def mat(rows):
    return Mat2.from_rows(rows)


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(())
    inst = Instance([mat([[1, 0], [0, 0]]), Mat2.identity()])
    assert inst.singular_indices == (0,)
    assert inst.invertible_indices == (1,)
    for member in ([[1, 0], [0, 0]], (1, 0, 0, 0), None):
        with pytest.raises(TypeError, match="Mat2"):
            Instance((Mat2.identity(), member))


def test_from_int_rows_sets_the_forms_of_from_rows():
    rows = [[[2, -4], [0, 0]], [[0, 0], [0, 0]], [[3, 1], [-7, 10 ** 40]]]
    inst, fresh = Instance.from_int_rows(rows), Instance.from_rows(rows)
    assert vars(inst).keys() == {"forms"} and vars(fresh).keys() == {"matrices"}
    assert inst.forms == fresh.forms

    def unread():
        # a new instance whose `matrices` has not been read, for each check
        return Instance.from_int_rows(rows)

    assert unread() == fresh and fresh == unread() and hash(unread()) == hash(fresh)
    assert repr(unread()) == repr(fresh)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(unread(), protocol) == pickle.dumps(fresh, protocol)
    loaded = pickle.loads(pickle.dumps(unread()))
    assert loaded == fresh and vars(loaded)["forms"] == fresh.forms
    for made in (copy.copy(unread()), copy.deepcopy(unread()), replace(unread())):
        assert made == fresh and made.forms == fresh.forms
    # the members are built on the first read and kept
    first = inst.matrices
    assert inst.matrices is first and first == fresh.matrices
    assert vars(inst).keys() == {"matrices", "forms"}
    with pytest.raises(ValueError):
        Instance.from_int_rows([])
    for entry in (True, Fraction(1), 1.0, "1"):
        with pytest.raises(TypeError, match="^from_int_rows takes int entries only$"):
            Instance.from_int_rows([[[1, 0], [0, 0]], [[1, 0], [0, entry]]])


def test_decide_zero_member():
    verdict = decide(Instance((Mat2.zero(),)))
    assert verdict == Mortal((0,), MORTAL_ZERO_MEMBER)


def test_decide_two_step_product():
    inst = Instance((mat([[1, 0], [0, 0]]), mat([[0, 0], [1, 0]])))
    verdict = decide(inst)
    assert verdict == Mortal((0, 1), MORTAL_TWO_STEP)
    assert verify_witness(inst, verdict.witness)


def test_decide_single_idempotent_is_immortal():
    verdict = decide(Instance((mat([[1, 0], [0, 0]]),)))
    assert verdict == Immortal(IMMORTAL_NO_ZERO_PAIR)


def test_decide_pair_route_worked_example():
    inst = Instance((mat([[7, -8], [0, 0]]), mat([[2, 0], [1, 1]])))
    verdict = decide(inst)
    assert isinstance(verdict, Mortal)
    assert verdict.witness == (0, 1, 1, 1, 0)
    assert verdict.certificate == MORTAL_PAIR_EXPONENT
    assert verdict.exponent_witness == (0, 3, 0)
    assert verify_witness(inst, verdict.witness)


def test_decide_certified_immortal():
    inst = Instance((mat([[1, 0], [0, 0]]), mat([[1, -2], [1, 0]])))
    assert decide(inst) == Immortal(IMMORTAL_PAIRS_REFUSED)


def test_decide_only_invertible_is_immortal():
    assert decide(Instance((mat([[2, 0], [1, 1]]),))) == Immortal(IMMORTAL_ALL_INVERTIBLE)


def test_decide_two_invertibles_alone_are_immortal():
    # every product of invertible members is invertible, however many there are
    inst = Instance((mat([[2, 0], [0, 1]]), mat([[1, 1], [0, 1]])))
    assert decide(inst, oracle_bound=6) == Immortal(IMMORTAL_ALL_INVERTIBLE)


def test_decide_two_invertibles_with_a_singular_member_are_unknown():
    # immortal, as every product has a positive (0, 0) entry, but out of scope
    inst = Instance((mat([[2, 0], [0, 1]]), mat([[1, 1], [0, 1]]), mat([[1, 0], [0, 0]])))
    assert decide(inst, oracle_bound=6) == Unknown(6)


def test_decide_two_invertibles_mortal_via_search_needs_zero():
    # a zero member keeps even out-of-scope instances decidable
    inst = Instance((mat([[2, 0], [0, 1]]), mat([[1, 1], [0, 1]]), Mat2.zero()))
    assert decide(inst) == Mortal((2,), MORTAL_ZERO_MEMBER)


def test_decide_two_invertibles_bounded_search_can_still_prove_mortal():
    from mortality2x2.decider import MORTAL_BOUNDED_SEARCH

    nilpotent = mat([[0, 1], [0, 0]])
    inst = Instance((mat([[2, 0], [0, 1]]), mat([[1, 1], [0, 1]]), nilpotent))
    verdict = decide(inst, oracle_bound=4)
    assert verdict == Mortal((2, 2), MORTAL_BOUNDED_SEARCH)
    assert verify_witness(inst, verdict.witness)


def test_decide_tie_break_scans_pairs_in_index_order():
    # pair (0,0) refuses; (0,1) has the immediate witness; (1,0) would too
    n0 = mat([[1, 0], [0, 0]])
    n1 = mat([[0, 0], [2, 3]])
    v = mat([[1, -2], [1, 0]])
    inst = Instance((n0, n1, v))
    verdict = decide(inst)
    assert verdict == Mortal((0, 1), MORTAL_PAIR_EXPONENT, exponent_witness=(0, 0, 1))
    assert verify_witness(inst, verdict.witness)


def test_decide_addresses_duplicate_members_by_position():
    n = mat([[0, 0], [1, 0]])  # nilpotent
    inst = Instance((n, n))
    verdict = decide(inst)
    assert verdict == Mortal((0, 0), MORTAL_TWO_STEP)
    assert verify_witness(inst, verdict.witness)


def test_verify_witness_examples():
    assert verify_witness(Instance((Mat2.zero(),)), (0,))
    inst = Instance((mat([[7, -8], [0, 0]]), mat([[2, 0], [1, 1]])))
    assert verify_witness(inst, (0, 1, 1, 1, 0))
    assert not verify_witness(inst, (0, 1, 0))
    assert not verify_witness(Instance((Mat2.identity(),)), (0,))
    with pytest.raises(IndexError):
        verify_witness(inst, (0, 5))
    with pytest.raises(IndexError):
        verify_witness(inst, (-1, 0))
    with pytest.raises(ValueError):
        verify_witness(inst, ())


def test_verify_witness_matches_the_rational_product():
    # reference: the left-to-right Mat2 product; members have fractional
    # entries and include scaled copies, words are planted, near misses or random
    outcomes = {True: 0, False: 0}
    for seed in range(300):
        rng = random.Random(seed)
        v = rand_nonperiodic_invertible(rng)
        k = rng.randint(1, 6)
        n = plant_pair(v, k)
        scale = rand_rat(rng, 5, 5) or Fraction(1, 7)
        mats = (n.scale(scale), v.scale(Fraction(1, rng.randint(2, 5))), n, rand_rank_one(rng, 3, 3), rand_mat(rng, 4, 4))
        inst = Instance(mats)
        words = [(0,) + (1,) * k + (2,), (2,) + (1,) * (k + 1) + (0,), (3,)]
        words += [tuple(rng.randrange(len(mats)) for _ in range(rng.randint(1, 8))) for _ in range(6)]
        for word in words:
            product = Mat2.identity()
            for i in word:
                product = product * mats[i]
            got = verify_witness(inst, word)
            assert got == product.is_zero(), (seed, word)
            outcomes[got] += 1
    assert outcomes[True] >= 300 and outcomes[False] >= 600


def test_to_two_singular_shapes():
    v = mat([[2, 0], [1, 1]])
    b1 = mat([[1, 0], [0, 0]])
    b2 = mat([[0, 0], [1, 0]])
    b3 = mat([[1, 1], [1, 1]])

    singles = to_two_singular(Instance((b1, v)))
    assert len(singles) == 1
    assert singles[0].matrices == (b1, -b1, v)

    many = to_two_singular(Instance((b1, b2, b3, v)))
    assert len(many) == 6  # three negation pairs plus three distinct pairs

    assert to_two_singular(Instance((v,))) == []


def test_pad_singular():
    v = mat([[2, 0], [1, 1]])
    b = mat([[1, 2], [0, 0]])
    inst = Instance((b, v))
    padded = pad_singular(inst, 3)
    assert len(padded.singular_indices) == 3
    assert padded.matrices[:2] == (b, v)
    assert padded.matrices[2] == b.scale(2)
    assert padded.matrices[3] == b.scale(3)
    assert pad_singular(inst, 1) is inst
    with pytest.raises(ValueError):
        pad_singular(inst, 0)
    with pytest.raises(ValueError):
        pad_singular(Instance((Mat2.zero(),)), 2)


def test_pad_singular_preserves_verdict():
    rng = random.Random(5150)
    for _ in range(100):
        members = [rand_rank_one(rng, 3, 3)]
        if rng.random() < 0.5:
            members.append(rand_invertible_int(rng, -3, 3))
        inst = Instance(tuple(members))
        padded = pad_singular(inst, 4)
        assert isinstance(decide(inst), Mortal) == isinstance(decide(padded), Mortal)


def test_cross_split_examples():
    b1 = mat([[1, 2], [0, 0]])
    b2 = mat([[0, 0], [3, 4]])
    left, right = cross_split(b1, b2)
    assert left == mat([[0, 0], [1, 2]])
    assert right == mat([[3, 4], [0, 0]])

    u = Vec2(1, Fraction(1, 2))
    v = Vec2(2, 4)
    m = outer(u, v)
    left, right = cross_split(m, m)
    for out in (left, right):
        assert not out.is_zero() and out.det() == 0
    assert left == m and right == m

    b = mat([[7, -8], [0, 0]])
    left, right = cross_split(b, b)
    assert left == b and right == b

    for bad in ((Mat2.identity(), b1), (b1, Mat2.zero())):
        with pytest.raises(RankError):
            cross_split(*bad)


def _first_nonzero_column_and_row(n):
    column = Vec2(n.e00, n.e10) if n.e00 or n.e10 else Vec2(n.e01, n.e11)
    return column, Vec2(n.e00, n.e01) if n.e00 or n.e01 else Vec2(n.e10, n.e11)


def test_cross_split_reconstructs_endpoint_factors():
    # the outputs are built from the members' primitive integer factors,
    # crossed, and are multiples of the crossed rational column and row
    rng = random.Random(62)
    for _ in range(200):
        b1 = rand_rank_one(rng, 3, 3)
        b2 = rand_rank_one(rng, 3, 3)
        a, brow = rank_one_factors(int_form(b1))
        c, drow = rank_one_factors(int_form(b2))
        left, right = cross_split(b1, b2)
        assert left == outer(Vec2(*c), Vec2(*brow))
        assert right == outer(Vec2(*a), Vec2(*drow))
        assert rank_one_factors(int_form(left)) == (c, brow)
        assert rank_one_factors(int_form(right)) == (a, drow)
        (col1, row1), (col2, row2) = map(_first_nonzero_column_and_row, (b1, b2))
        assert is_scalar_multiple(left, outer(col2, row1)) is not None
        assert is_scalar_multiple(right, outer(col1, row2)) is not None


def test_scaling_members_never_changes_the_verdict():
    rng = random.Random(31415)
    for _ in range(10_000):
        members = [rand_rank_one(rng, 2, 2) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            members.append(rand_invertible_int(rng, -2, 2))
        inst = Instance(tuple(members))
        scaled_members = []
        for m in members:
            t = Fraction(0)
            while t == 0:
                t = rand_rat(rng, 3, 3)
            scaled_members.append(m.scale(t))
        scaled = Instance(tuple(scaled_members))
        assert decide(inst) == decide(scaled)


def test_every_mortal_verdict_verifies():
    rng = random.Random(2023)
    for _ in range(2000):
        members = [rand_rank_one(rng, 3, 3) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.6:
            members.append(rand_invertible_int(rng, -3, 3))
        inst = Instance(tuple(members))
        verdict = decide(inst)
        if isinstance(verdict, Mortal):
            assert verify_witness(inst, verdict.witness)


# ------------------------------------------------------- the hoisted pair loop

# One V per spectral shape, with the minimal order m of V^m ~ I when periodic.
LOOP_REGIMES = {
    "periodic1": (mat([[2, 0], [0, 2]]), 1),
    "periodic2_real": (mat([[1, 2], [3, -1]]), 2),
    "periodic2_complex": (mat([[1, -2], [1, -1]]), 2),
    "periodic3": (mat([[1, -3], [1, 1]]), 3),
    "periodic4": (mat([[1, -1], [1, 1]]), 4),
    "periodic6": (mat([[1, -1], [1, 2]]), 6),
    "pos_square": (mat([[2, 0], [1, 1]]), None),
    "pos_square_opposite_sign": (mat([[3, 0], [1, -1]]), None),
    "pos_nonsquare": (mat([[2, 1], [1, 1]]), None),
    "pos_nonsquare_fractional_2p": (mat([[1, 2], [3, 1]]), None),
    "negative": (mat([[1, -2], [1, 0]]), None),
    "negative_fractional": (mat([[Fraction(1, 3), Fraction(-2, 3)], [Fraction(1, 3), 0]]), None),
    "pos_nonsquare_scaled": (mat([[2, 1], [1, 1]]).scale(Fraction(-2, 5)), None),
    "zero": (mat([[1, 1], [0, 1]]), None),
    "zero_scaled": (mat([[2, 1], [0, 2]]), None),
}


def _plant(rng, v, k):
    """u w^T with w orthogonal to V^k u, so that N V^k N = 0."""
    power = mat_pow(v, k)
    while True:
        u = Vec2(rng.randint(-4, 4), rng.randint(-4, 4))
        w = power.mul_vec(u).perp()
        if w.dot(u) != 0:
            return outer(u, w.scale(rng.choice((1, -2, Fraction(1, 3)))))


def _loop_instances(name, count=12):
    """Seeded instances over one V with 2-8 singular members, some planted,
    duplicated or projectively equal to an earlier member."""
    v, order = LOOP_REGIMES[name]
    rng = random.Random(name)
    out = []
    for _ in range(count):
        members = []
        for _ in range(rng.randint(2, 8)):
            roll = rng.random()
            if members and roll < 0.2:
                members.append(rng.choice(members))
            elif members and roll < 0.35:
                members.append(rng.choice(members).scale(rng.choice((-2, Fraction(1, 3), 5))))
            elif order != 1 and roll < 0.45:
                members.append(_plant(rng, v, rng.randint(1, (order or 13) - 1)))
            else:
                members.append(rand_rank_one(rng, 9, 5))
        members.insert(rng.randint(0, len(members)), v)
        out.append(Instance(tuple(members)))
    return out


def _reference_decide(instance):
    """The pair route of `decide` as a row-major loop over bare `decide_pair`."""
    mats = instance.matrices
    (v_index,) = instance.invertible_indices
    for i in instance.singular_indices:
        for j in instance.singular_indices:
            verdict = decide_pair(mats[i], mats[v_index], mats[j])
            if isinstance(verdict, Witness):
                word = (i,) + (v_index,) * verdict.k + (j,)
                return Mortal(word, MORTAL_PAIR_EXPONENT, exponent_witness=(i, verdict.k, j))
    return Immortal(IMMORTAL_PAIRS_REFUSED)


def test_loop_regimes_have_the_intended_shape():
    for v, order in LOOP_REGIMES.values():
        assert analyze_inner(int_form(v)).order == order


@pytest.mark.parametrize("name", sorted(LOOP_REGIMES))
def test_decide_matches_a_loop_over_bare_decide_pair(name):
    exponents = set()
    for inst in _loop_instances(name):
        verdict = decide(inst)
        assert verdict == _reference_decide(inst)
        if isinstance(verdict, Mortal):
            exponents.add(verdict.exponent_witness[1])
            assert verify_witness(inst, verdict.witness)
        else:
            exponents.add(None)
    # the corpus reaches refusals and exponents past k = 0
    assert None in exponents
    assert LOOP_REGIMES[name][1] == 1 or max(k or 0 for k in exponents) >= 1


def test_the_join_on_orbit_keys_keeps_row_major_order():
    # Five members u_i w_i^T and V with complex eigenvalues at position 2.
    # Row 0 has witnesses at j = 1, 3 and 4 (k = 4, 1, 2), whose right ends
    # share one orbit key, and the pair (1, 0) is a witness at k = 1: a join
    # that took a bucket's right ends in another order, or the pairs column
    # by column, would return another witness.
    v = mat([[1, -2], [1, 0]])
    us = [(1, 2), (2, 1), (1, 1), (1, 0), (3, -1)]
    ws = [(1, 1), (1, 3), (1, -3), (2, 5), (1, 4)]
    members = [outer(Vec2(*u), Vec2(*w)) for u, w in zip(us, ws)]
    inst = Instance((*members[:2], v, *members[2:]))
    singulars = inst.singular_indices
    assert len(singulars) >= SIEVE_MIN_SINGULARS
    witnesses = [
        (i, j) for i in singulars for j in singulars
        if isinstance(decide_pair(inst.matrices[i], v, inst.matrices[j]), Witness)
    ]
    first_row = [j for i, j in witnesses if i == witnesses[0][0]]
    assert len(first_row) >= 2
    assert min(witnesses, key=lambda pair: pair[::-1]) != witnesses[0]
    inner = analyze_inner(int_form(v))
    sieve = orbit_sieve(inner)
    keys = {endpoint(inst.forms[j], inner.v, sieve).right_key for j in first_row}
    assert len(keys) == 1
    verdict = decide(inst)
    assert verdict == _reference_decide(inst)
    assert verdict.exponent_witness == (0, 4, 1)


@pytest.mark.parametrize("name", sorted(LOOP_REGIMES))
def test_prepared_pairs_match_bare_pairs(name):
    v, _ = LOOP_REGIMES[name]
    inner = analyze_inner(int_form(v))
    for inst in _loop_instances(name, count=4):
        singulars = [inst.matrices[i] for i in inst.singular_indices]
        ends = [endpoint(int_form(n), inner.v) for n in singulars]
        for left, n_left in zip(ends, singulars):
            for right, n_right in zip(ends, singulars):
                bare = decide_pair(n_left, v, n_right)
                assert decide_pair(n_left, v, n_right, (inner, left, right)) == bare


def test_decide_hoists_the_per_v_and_per_member_work(monkeypatch):
    # n = 6 singular members and one V with complex eigenvalues, all 36 pairs refused
    v = mat([[1, -2], [1, 0]])
    rng = random.Random(6)
    while True:
        inst = Instance((*(rand_rank_one(rng, 3, 3) for _ in range(6)), v))
        if decide(inst) == Immortal(IMMORTAL_PAIRS_REFUSED):
            break
    survivors = _sieve_survivors(inst)
    calls = {}
    modules = [m for name, m in sys.modules.items() if name.startswith("mortality2x2")]
    for owner, fn_name in (
        ("linalg", "char_poly"),
        ("linalg", "canon_int_mat"),
        ("pairs", "endpoint"),
        ("spectral", "power_similar_identity"),
        ("spectral", "period_order"),
        ("pairs", "decide_pair"),
        ("pairs", "pair_problem"),
    ):
        original = getattr(sys.modules["mortality2x2." + owner], fn_name)
        calls[fn_name] = 0

        def counted(*args, _fn=original, _name=fn_name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    built = _count_constructions(monkeypatch)
    verdict = decide(inst)
    constructed = dict(built)
    assert verdict == Immortal(IMMORTAL_PAIRS_REFUSED)
    assert calls == {
        "char_poly": 0,  # V's characteristic polynomial is read off its integer form
        "canon_int_mat": 1 + 2 * 6,  # once for V, twice per member (u and w)
        "endpoint": 6,
        "power_similar_identity": 0,
        "period_order": 1,
        # the join on orbit keys calls decide_pair only on the pairs the
        # orbit sieve lets through (14 of the 36 here), and each takes s0 and s1
        "decide_pair": survivors,
        "pair_problem": survivors,
    }
    assert survivors < 36
    # the package's objects are built per V and per member, none per pair:
    # a pair's hoisted inputs travel as a plain tuple, and each refusal is a
    # shared value
    assert constructed == {"InnerAnalysis": 1, "CharPoly": 1, "Endpoint": 6, "Immortal": 1}


def _sieve_survivors(instance):
    """The ordered pairs of singular members (N_i, N_j) whose ends share an
    orbit modulo every prime of SIEVE_PRIMES not dividing det V: with
    N_i ~ u_i w_i^T, some w_i . V^k u_j with 0 <= k <= q is 0 mod q, since
    an orbit of the q + 1 points of P^1(F_q) is no longer than that."""
    (v_index,) = instance.invertible_indices
    v, det = int_form(instance.matrices[v_index])
    factors = [rank_one_factors(instance.forms[i]) for i in instance.singular_indices]
    primes = [q for q in SIEVE_PRIMES if det % q]
    survivors = 0
    for _, w in factors:
        for u, _ in factors:
            survivors += all(_meets_mod(v, q, u, w) for q in primes)
    return survivors


def _meets_mod(v, q, u, w):
    """Whether w . V^k u is 0 mod q for some 0 <= k <= q."""
    x = u
    for _ in range(q + 1):
        if (w[0] * x[0] + w[1] * x[1]) % q == 0:
            return True
        x = ((v[0] * x[0] + v[1] * x[1]) % q, (v[2] * x[0] + v[3] * x[1]) % q)
    return False


def _count_constructions(monkeypatch):
    """Count, by class name, the instances built of every value class of the
    package, dataclass or NamedTuple, by hooking its own constructor."""
    built = Counter()
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("mortality2x2"):
            continue
        for cls in vars(module).values():
            if not (isinstance(cls, type) and cls.__module__ == module_name
                    and (is_dataclass(cls) or issubclass(cls, tuple))):
                continue
            method = "__init__" if is_dataclass(cls) else "__new__"
            real = getattr(cls, method)

            def counted(*args, _real=real, _name=cls.__name__, **kwargs):
                built[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(cls, method, counted if is_dataclass(cls) else staticmethod(counted))
    return built


def test_decide_takes_each_integer_form_and_determinant_once(monkeypatch):
    # one planted pair: the members' integer forms and determinants are
    # taken once, as Instance.forms, and reused by analyze_inner, endpoint
    # and the witness check, then by search and verify_witness as
    # fuzz_compare runs them, and by the index properties and pad_singular,
    # so no Mat2.det is left
    v = mat([[2, 1], [1, 1]])
    members = (plant_pair(v, 40), v)
    calls = {"to_int_mat": 0, "det": 0}
    real_det = Mat2.det
    real_to_int_mat = sys.modules["mortality2x2.linalg"].to_int_mat

    def counted_det(self):
        calls["det"] += 1
        return real_det(self)

    def counted_to_int_mat(m):
        calls["to_int_mat"] += 1
        return real_to_int_mat(m)

    monkeypatch.setattr(Mat2, "det", counted_det)
    for name, module in list(sys.modules.items()):
        if name.startswith("mortality2x2") and getattr(module, "to_int_mat", None) is real_to_int_mat:
            monkeypatch.setattr(module, "to_int_mat", counted_to_int_mat)
    inst = Instance(members)
    verdict = decide(inst)
    assert verdict.exponent_witness == (0, 40, 0)
    assert search(inst, 8) is None
    assert verify_witness(inst, verdict.witness)
    assert (inst.singular_indices, inst.invertible_indices) == ((0,), (1,))
    assert pad_singular(inst, 2).matrices == (members[0], v, members[0].scale(2))
    assert calls == {"to_int_mat": len(members), "det": 0}


def test_a_decided_instance_equals_hashes_and_pickles_as_a_fresh_one():
    # the kept integer forms are no field: equality, hash and repr read only
    # the members, and a pickled decided instance decides the same
    v = mat([[2, 1], [1, 1]])
    members = (plant_pair(v, 40), v)
    decided, fresh = Instance(members), Instance(members)
    verdict = decide(decided)
    copy = pickle.loads(pickle.dumps(decided))
    for other in (decided, copy):
        assert other == fresh
        assert hash(other) == hash(fresh)
        assert repr(other) == repr(fresh)
    assert copy.forms == fresh.forms
    assert decide(copy) == verdict == decide(fresh)


@pytest.mark.parametrize("bound", [0, -1])
def test_decide_refuses_a_search_bound_below_one(bound):
    # refused by name up front, whatever the number of invertible members;
    # only two or more of them ever reach the search
    n, v = mat([[1, 2], [0, 0]]), mat([[2, 1], [1, 1]])
    for members in ((n,), (n, v), (n, v, mat([[0, -1], [1, 0]]))):
        with pytest.raises(ValueError, match="^oracle_bound must be at least 1$"):
            decide(Instance(members), oracle_bound=bound)


# diag(1, -1) and -I generate a group of four, so a search on this instance
# runs out of rows whatever its bound, and a bound that slips through the
# check makes a test fail rather than hang
FINITE_GROUP = Instance.from_rows([[[1, 0], [0, 0]], [[1, 0], [0, -1]], [[-1, 0], [0, -1]]])


@pytest.mark.parametrize("bound", [float("nan"), 2.5, Fraction(4), True], ids=repr)
def test_decide_refuses_a_search_bound_that_is_not_an_int(bound):
    # NaN compares false with 1 and with every word length: it used to pass
    # the bound check and reach the search, which here came back as
    # Unknown(search_bound=nan) and on an infinite group never ended
    assert decide(FINITE_GROUP) == Unknown(8)
    with pytest.raises(TypeError, match="^oracle_bound must be an int$"):
        decide(FINITE_GROUP, oracle_bound=bound)


def test_decide_multiplies_and_zero_tests_only_integer_forms(monkeypatch):
    # the zero-member, two-step and pair routes test zero on the members'
    # integer forms: no Mat2 product, zero test, determinant or new Mat2
    periodic_v = mat([[0, -1], [1, 0]])
    cases = [
        (Instance((mat([[1, 2], [3, 4]]), Mat2.zero())), MORTAL_ZERO_MEMBER),
        (Instance((mat([[1, 0], [0, 0]]), mat([[0, 0], [Fraction(1, 3), 0]]))), MORTAL_TWO_STEP),
        (Instance((mat([[1, 0], [0, 0]]), mat([[1, Fraction(1, 2)], [0, 0]]))), IMMORTAL_NO_ZERO_PAIR),
        (Instance((mat([[1, 0], [0, 0]]), mat([[1, -2], [1, 0]]))), IMMORTAL_PAIRS_REFUSED),
        (Instance((mat([[1, 0], [0, 0]]), periodic_v)), MORTAL_PAIR_EXPONENT),
        (Instance((mat([[1, 1], [0, 0]]), periodic_v)), IMMORTAL_PAIRS_REFUSED),
    ]
    for v in (*REGIMES.values(), mat([[2, 1], [1, 1]]).scale(Fraction(1, 3))):
        cases.append((Instance((mat([[1, 1], [0, 0]]), plant_pair(v, 7), v)), MORTAL_PAIR_EXPONENT))
    calls = {"__mul__": 0, "is_zero": 0, "det": 0, "__init__": 0}
    for name in calls:
        real = getattr(Mat2, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(Mat2, name, counted)
    for inst, certificate in cases:
        assert decide(inst).certificate == certificate
    assert calls == {"__mul__": 0, "is_zero": 0, "det": 0, "__init__": 0}


def test_verdict_is_the_union_of_the_three_verdicts():
    assert typing.get_args(Verdict) == (Mortal, Immortal, Unknown)
    assert all(isinstance(verdict, Verdict) for verdict in (Mortal((0,), "c"), Immortal("c"), Unknown(3)))
    assert not isinstance(Witness(3), Verdict)


_REIMPORT = textwrap.dedent("""
    import gc, sys, weakref
    from mortality2x2 import decider, pairs, spectral
    refs = [weakref.ref(cls) for cls in (decider.Instance, pairs.Witness, spectral.Periodic)]
    del decider, pairs, spectral
    for name in [name for name in sys.modules if name.partition(".")[0] == "mortality2x2"]:
        del sys.modules[name]
    import mortality2x2
    gc.collect()
    print([ref() is None for ref in refs])
""")


def test_a_reimported_package_leaves_no_old_module_alive():
    # A union alias built with typing.Union is cached by `typing`, and the
    # cache kept its classes, and through their methods' globals each whole
    # module, alive after the package left sys.modules: every re-import (the
    # benchmark makes one per set-up) stayed resident.  Run in a child
    # interpreter: a re-import here would split class identity for the
    # other tests.
    src = str(Path(mortality2x2.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _REIMPORT], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[True, True, True]\n"
