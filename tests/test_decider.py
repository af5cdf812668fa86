"""Set-level decisions, witness verification, and instance reductions."""

import random
import sys
from fractions import Fraction

import pytest

from mortality2x2 import Immortal, Instance, Mat2, Mortal, Unknown, decide, verify_witness
from mortality2x2.linalg import Vec2, factor_rank_one, mat_pow, outer, rank
from mortality2x2.pairs import Prepared, Witness, analyze_inner, decide_pair, endpoint
from mortality2x2.decider import (
    IMMORTAL_ALL_INVERTIBLE,
    IMMORTAL_NO_ZERO_PAIR,
    IMMORTAL_PAIRS_REFUSED,
    MORTAL_PAIR_EXPONENT,
    MORTAL_TWO_STEP,
    MORTAL_ZERO_MEMBER,
    cross_split,
    pad_singular,
    to_two_singular,
)
from helpers import plant_pair, rand_invertible_int, rand_rank_one, rand_rat


def mat(rows):
    return Mat2.from_rows(rows)


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(())
    inst = Instance([mat([[1, 0], [0, 0]]), Mat2.identity()])
    assert inst.singular_indices == (0,)
    assert inst.invertible_indices == (1,)


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


def test_decide_two_invertibles_is_unknown():
    inst = Instance((mat([[2, 0], [0, 1]]), mat([[1, 1], [0, 1]])))
    verdict = decide(inst, oracle_bound=6)
    assert verdict == Unknown(6)


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
    with pytest.raises(ValueError):
        verify_witness(inst, ())


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
    assert rank(left) == 1 and rank(right) == 1
    assert left == m and right == m

    b = mat([[7, -8], [0, 0]])
    left, right = cross_split(b, b)
    assert left == b and right == b

    with pytest.raises(Exception):
        cross_split(Mat2.identity(), b1)


def test_cross_split_reconstructs_endpoint_factors():
    rng = random.Random(62)
    for _ in range(200):
        b1 = rand_rank_one(rng, 3, 3)
        b2 = rand_rank_one(rng, 3, 3)
        a, brow = factor_rank_one(b1)
        c, drow = factor_rank_one(b2)
        left, right = cross_split(b1, b2)
        assert left == outer(c, brow)
        assert right == outer(a, drow)


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
        periodic = analyze_inner(v).periodic
        assert (periodic and periodic.order) == order


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


@pytest.mark.parametrize("name", sorted(LOOP_REGIMES))
def test_prepared_pairs_match_bare_pairs(name):
    v, _ = LOOP_REGIMES[name]
    inner = analyze_inner(v)
    for inst in _loop_instances(name, count=4):
        singulars = [inst.matrices[i] for i in inst.singular_indices]
        ends = [endpoint(n, inner.v) for n in singulars]
        for left, n_left in zip(ends, singulars):
            for right, n_right in zip(ends, singulars):
                bare = decide_pair(n_left, v, n_right)
                assert decide_pair(n_left, v, n_right, Prepared(inner, left, right)) == bare


def test_decide_hoists_the_per_v_and_per_member_work(monkeypatch):
    # n = 6 singular members and one V with complex eigenvalues, all 36 pairs refused
    v = mat([[1, -2], [1, 0]])
    rng = random.Random(6)
    while True:
        inst = Instance((*(rand_rank_one(rng, 3, 3) for _ in range(6)), v))
        if decide(inst) == Immortal(IMMORTAL_PAIRS_REFUSED):
            break
    calls = {}
    modules = [m for name, m in sys.modules.items() if name.startswith("mortality2x2")]
    for owner, fn_name in (
        ("linalg", "char_poly"),
        ("linalg", "canon_int_mat"),
        ("pairs", "endpoint"),
        ("spectral", "power_similar_identity"),
        ("pairs", "decide_pair"),
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
    assert decide(inst) == Immortal(IMMORTAL_PAIRS_REFUSED)
    assert calls == {
        "char_poly": 1,
        "canon_int_mat": 1 + 2 * 6,  # once for V, twice per member (u and w)
        "endpoint": 6,
        "power_similar_identity": 1,
        "decide_pair": 36,
    }


def test_decide_takes_each_integer_form_and_determinant_once(monkeypatch):
    # one planted pair: the members' integer forms and determinants are
    # taken once, in decide, and reused by analyze_inner, endpoint and the
    # witness check; the one Mat2.det left is char_poly's on the canonical V
    v = mat([[2, 1], [1, 1]])
    inst = Instance((plant_pair(v, 40), v))
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
    assert decide(inst).exponent_witness == (0, 40, 0)
    assert calls == {"to_int_mat": 2, "det": 1}
