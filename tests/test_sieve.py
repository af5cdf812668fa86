"""The modular orbit sieve: V's orbit labels on P^1(F_q), and the pair
refusals they give, against the exact pair engine."""

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mortality2x2 import EntryRange, Instance, Mat2, decide
from mortality2x2.decider import SIEVE_MIN_SINGULARS
from mortality2x2.linalg import ZERO, int_form
from mortality2x2.oracle import random_instance
from mortality2x2.pairs import (
    SIEVE_PRIMES, NoExponent, Witness, analyze_inner, decide_pair, endpoint, orbit_labels, orbit_sieve,
)
from helpers import REGIMES, plant_pair, rand_invertible_int, rand_rank_one

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import instances  # noqa: E402


def _point(q, x, y):
    """The index of [x : y] in P^1(F_q): x/y mod q, or q for [1 : 0]."""
    return x * pow(y, -1, q) % q if y % q else q


def _representative(q, point):
    return (point, 1) if point < q else (1, 0)


@given(st.tuples(*[st.integers(-40, 40)] * 4), st.sampled_from(SIEVE_PRIMES))
@settings(max_examples=400)
def test_orbit_labels_are_the_cycles_of_v_mod_q(v, q):
    a, b, c, d = v
    if (a * d - b * c) % q == 0:
        return
    labels = orbit_labels(v, q)
    assert len(labels) == q + 1
    for point in range(q + 1):
        x, y = _representative(q, point)
        cycle, image = [point], _point(q, a * x + b * y, c * x + d * y)
        while image != point:
            cycle.append(image)
            x, y = _representative(q, image)
            image = _point(q, a * x + b * y, c * x + d * y)
        # constant on the orbit, and that orbit is the whole label class
        assert {labels[p] for p in cycle} == {labels[point]}
        assert sorted(cycle) == [p for p in range(q + 1) if labels[p] == labels[point]]


def test_endpoint_keys_fold_the_labels_of_perp_w_and_u():
    rng = random.Random(3)
    for _ in range(200):
        inner = analyze_inner(int_form(rand_invertible_int(rng, -9, 9)))
        sieve = orbit_sieve(inner)
        primes = [q for q in SIEVE_PRIMES if inner.char.c % q]
        assert [q for q, _, _ in sieve] == primes
        n = rand_rank_one(rng, 9, 7)
        end = endpoint(int_form(n), inner.v, sieve)
        (w0, w1), (u0, u1) = end.w, end.u

        def labels(x, y):
            return [orbit_labels(inner.v, q)[_point(q, x, y)] for q in primes]

        def key_labels(key):
            out = []
            for q in primes:
                key, label = divmod(key, q + 1)
                out.append(label)
            assert key == 0
            return out

        assert key_labels(end.left_key) == labels(-w1, w0)
        assert key_labels(end.right_key) == labels(u0, u1)
        bare = endpoint(int_form(n), inner.v)
        assert (bare.u, bare.w, bare.vu, bare.left_key, bare.right_key) == (end.u, end.w, end.vu, None, None)


def _one_invertible_draws(entry_range, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_instance(rng, entry_range, max_singulars=12, invertible_probability=1.0)


def _wide_pools():
    for seed in (1, 2):
        for case in instances.wide_pool(seed, 12, 2):
            yield Instance.from_int_rows(case.matrices())


def _planted(count=60):
    """Planted witnesses at exponents 1-12 over non-periodic V, among random
    members, and the deep_exponent pool's planted cases and near misses."""
    rng = random.Random(11)
    regimes = list(REGIMES.values())
    for i in range(count):
        v = regimes[i % len(regimes)]
        members = [plant_pair(v, rng.randint(1, 12)) for _ in range(rng.randint(1, 3))]
        members += [rand_rank_one(rng, 5, 3) for _ in range(rng.randint(0, 4))]
        rng.shuffle(members)
        yield Instance((*members, v))
    for case in instances.deep_pool(1, 3):
        yield Instance.from_int_rows(case.matrices())


CORPORA = {
    "unbiased": lambda: _one_invertible_draws(EntryRange(), 300, 0),
    "entry7x5": lambda: _one_invertible_draws(EntryRange(7, 5), 300, 1),
    "wide_pools": _wide_pools,
    "planted": _planted,
}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_the_sieve_refuses_only_what_the_exact_engine_refuses(name):
    sieved = witnesses = total = 0
    for inst in CORPORA[name]():
        if any(a == ZERO for a, _ in inst.forms):
            continue
        (v_index,) = inst.invertible_indices
        v = inst.matrices[v_index]
        inner = analyze_inner(inst.forms[v_index])
        sieve = orbit_sieve(inner)
        members = [(inst.matrices[j], endpoint(inst.forms[j], inner.v, sieve)) for j in inst.singular_indices]
        for n_left, left in members:
            for n_right, right in members:
                bare = decide_pair(n_left, v, n_right)
                verdict = decide_pair(n_left, v, n_right, (inner, left, right))
                if left.left_key != right.right_key:
                    sieved += 1
                    # an exact refusal, and the very value the exact path returns
                    assert isinstance(bare, NoExponent)
                    assert verdict is bare
                else:
                    assert verdict == bare
                witnesses += isinstance(bare, Witness)
                total += 1
    if name == "wide_pools":
        # certified immortal by orbits modulo one of 3-13: the sieve refuses every pair
        assert sieved == total
    else:
        # the corpus reaches both sides of the sieve
        assert sieved > 0 and witnesses > 0


@pytest.mark.parametrize("entry_range", [EntryRange(), EntryRange(7, 5)], ids=repr)
def test_decide_with_the_sieve_matches_a_loop_over_bare_decide_pair(entry_range):
    built = 0
    for inst in _one_invertible_draws(entry_range, 150, 2):
        if any(a == ZERO for a, _ in inst.forms):
            continue
        mats = inst.matrices
        (v_index,) = inst.invertible_indices
        singulars = inst.singular_indices
        built += len(singulars) >= SIEVE_MIN_SINGULARS
        expected = None
        for i in singulars:
            for j in singulars:
                pair = decide_pair(mats[i], mats[v_index], mats[j])
                if expected is None and isinstance(pair, Witness):
                    expected = ((i,) + (v_index,) * pair.k + (j,), (i, pair.k, j))
        verdict = decide(inst)
        if expected is None:
            assert verdict.certificate == "all-pairs-refused"
        else:
            assert (verdict.witness, verdict.exponent_witness) == expected
    assert built > 50


def test_decide_builds_the_sieve_from_the_threshold_on(monkeypatch):
    calls = []
    real = orbit_sieve

    def counted(inner):
        calls.append(inner)
        return real(inner)

    monkeypatch.setattr(sys.modules["mortality2x2.decider"], "orbit_sieve", counted)
    v, n = Mat2.from_rows([[1, -2], [1, 0]]), Mat2.from_rows([[1, 0], [0, 0]])
    for count in range(1, SIEVE_MIN_SINGULARS + 2):
        calls.clear()
        decide(Instance((v,) + (n,) * count))
        assert len(calls) == (count >= SIEVE_MIN_SINGULARS)
