"""Tests of the benchmark's generators, ground truth and traced run.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import instances  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

SCAN = 60


def _power_scan(left, v, right):
    """Exponents j <= SCAN with left * v^j * right == 0, by integer products."""
    hits = []
    p = (1, 0, 0, 1)
    for j in range(SCAN + 1):
        if instances.mat_mul(instances.mat_mul(left, p), right) == (0, 0, 0, 0):
            hits.append(j)
        p = instances.mat_mul(p, v)
    return hits


@pytest.mark.parametrize("kind", instances.DEEP_POLYS)
def test_deep_ground_truth_matches_exact_scan(kind):
    rng = random.Random(kind)
    for poly in instances.DEEP_POLYS[kind]:
        for k in (instances.K_MIN, 17, 40):
            case = instances.deep_case(rng, kind, poly, k)
            expected = [k] if case.mortal else []
            assert _power_scan(case.n, case.v, case.n) == expected
            assert case.expected()[2] == ([0] + [1] * k + [0] if case.mortal else None)


@pytest.mark.parametrize("kind", instances.WIDE_POLYS)
def test_wide_certificate_matches_exact_scan(kind):
    rng = random.Random(kind)
    for poly in instances.WIDE_POLYS[kind]:
        case = instances.wide_case(rng, kind, poly, singulars=4)
        for left in case.ns:
            for right in case.ns:
                assert _power_scan(left, case.v, right) == []


@pytest.mark.parametrize("polys", [instances.DEEP_POLYS, instances.WIDE_POLYS])
def test_regime_labels_match_kinds(polys):
    rng = random.Random(0)
    for kind in polys:
        for poly in polys[kind]:
            label = instances.regime(instances.draw_v(rng, kind, *poly))
            if kind.startswith("periodic"):
                assert label == "periodic"
            elif kind == "zero":
                assert label == "disc_zero"
            elif kind == "neg":
                assert label == "disc_neg"
            else:
                assert label == "disc_pos"
    assert instances.regime((Fraction(1, 2), 0, 0, Fraction(1, 2))) == "periodic"


def test_zero_product_search():
    e00, e11, swap = (1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 1, 0)
    assert instances.zero_product_within([e00, e11], 2)
    assert instances.zero_product_within([e00, swap], 3)  # e00 * swap * e00
    assert not instances.zero_product_within([e00, swap], 2)
    assert not instances.zero_product_within([swap, (2, 1, 1, 1)], 8)


@pytest.fixture
def engine():
    """A fresh engine import, with the caller's modules restored afterwards."""

    def engine_modules():
        return [n for n in sys.modules if n == run.PACKAGE or n.startswith(run.PACKAGE + ".")]

    saved = {name: sys.modules[name] for name in engine_modules()}
    try:
        yield run.Engine()
    finally:
        for name in engine_modules():
            del sys.modules[name]
        sys.modules.update(saved)


COUNTS = (
    "pairs.r_next.calls",
    "decider.decide_pair.calls",
    "oracle.search.calls",
    "linalg.mat_pow.calls",
    "linalg.char_poly.calls",
    "spectral.power_similar_identity.calls",
)


@pytest.mark.parametrize("workload, sizes", [
    ("fuzz", {"FUZZ_POOL": 40}),
    ("deep_exponent", {"DEEP_STRATA": 2}),
    ("wide_pairs", {"WIDE_SINGULARS": 4, "WIDE_PER_KIND": 1}),
])
def test_traced_run_agrees_with_untraced_and_counts_repeat(workload, sizes, engine, tmp_path, monkeypatch):
    for name, value in sizes.items():
        monkeypatch.setattr(run, name, value)
    ops = run.WORKLOADS[workload](engine, 5, tmp_path)
    first, attempted, failed = run.traced_run(ops, 0, tmp_path / "spans.jsonl")
    # `failed` also counts traced verdicts that differ from untraced ones.
    assert (attempted, failed) == (2 * len(ops), 0)
    second, _, failed = run.traced_run(ops, 0, tmp_path / "spans.jsonl")
    assert failed == 0
    for name in COUNTS:
        assert first[name] == second[name], name
    if workload == "fuzz":
        assert first["oracle.search.calls"]["value"] == len(ops)
    else:
        assert first["oracle.search.calls"]["value"] == 0
    if workload == "wide_pairs":
        assert first["decider.pairs_per_op"]["value"] == 4 * 4
    if workload == "deep_exponent":
        assert first["decider.pairs_per_op"]["value"] == 1
        assert first["pairs.r_next.calls"]["value"] > 0


def test_timed_run_checks_every_op(engine, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WIDE_SINGULARS", 3)
    monkeypatch.setattr(run, "WIDE_PER_KIND", 1)
    ops = run.setup_wide(engine, 7, tmp_path)
    metrics, attempted, failed = run.timed_run(ops, 0)
    assert (attempted, failed) == (len(ops), 0)
    assert set(metrics) == {"ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in metrics.values())


def test_fuzz_pool_takes_an_equal_share_of_each_stratum(engine, monkeypatch):
    monkeypatch.setattr(run, "FUZZ_POOL", 80)
    pool = run.fuzz_pool(engine, 3)
    assert len(pool) == 80
    strata = [run.fuzz_stratum(instance) for _, instance in pool]
    assert all(strata.count(stratum) == 10 for stratum in run.FUZZ_STRATA)
    assert [run.fuzz_stratum(run._fuzz_instance(engine, s)) for s, _ in pool] == strata


def test_host_speed_samples_between_ops():
    speed = reference.HostSpeed()
    speed.after_op(reference.SAMPLE_EVERY_S / 2)
    assert speed.samples == 0
    speed.after_op(reference.SAMPLE_EVERY_S / 2)
    assert speed.samples == 1
    assert speed.slowdown() == speed.times[0] / reference.NOMINAL_S > 0
    speed.times = [float(t) for t in range(1, 22)]
    assert speed.slowdown() == 3 / reference.NOMINAL_S
