"""End-to-end and per-layer benchmark of the mortality2x2 engine.

    python3 perfbench/run.py --workload deep_exponent --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the engine is imported from
``src/``.  Load is a closed loop in one process: the next op starts when the
previous one returns.  Every op goes through an entry point users call, and
its verdict is checked against ground truth built in ``instances.py``
without the engine, outside the timed call.

Workloads:

* ``fuzz`` -- ``oracle.fuzz_compare(count=1, seed=s_i)`` on the default
  distribution: many tiny instances; the only workload that runs ``oracle``.
* ``deep_exponent`` -- ``cli.main(["decide", file, "--json"])`` on one rank-1
  member and one invertible V with planted witness exponents, log-uniform in
  [10, 5000], plus certified near misses: stresses ``pairs``, ``spectral``
  and big-integer ``linalg``.
* ``wide_pairs`` -- the same CLI call on certified immortal instances with
  WIDE_SINGULARS rank-1 members, so every one of the n^2 endpoint pairs is
  refused: stresses the ``decider`` pair loop and per-pair overhead.

Ops are taken in passes over a pool fixed by the seed, and a run stops at the
first pass boundary after ``--seconds`` of op time.  ``--trace 0`` prints the
end-to-end metrics, taken over each op's best time across the passes.  All
times are divided by the slowdown of the shared host that ``reference.py``
measures in the same run; the raw figures are printed on a ``#`` line.
``--trace 1`` alternates untraced and traced passes and
prints per-layer metrics: times are seconds per op, ``.calls`` counts are
totals over one pass of the pool and repeat exactly for a seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from math import lcm
from pathlib import Path
from typing import Callable

import instances
from reference import NOMINAL_S, HostSpeed, time_task

PACKAGE = "mortality2x2"
SETUP_REPEATS = 11
WARMUP_OPS = 3
FUZZ_POOL = 4000
FUZZ_STRATA = [(singular, invertible) for singular in range(1, 5) for invertible in (0, 1)]
DEEP_STRATA = 26  # pool of len(DEEP_POLYS) * DEEP_STRATA instances
WIDE_SINGULARS = 12
WIDE_PER_KIND = 13  # pool of len(WIDE_POLYS) * WIDE_PER_KIND instances
ORACLE_BOUND = 8  # fuzz_compare's default search bound


@dataclass
class Op:
    """One closed-loop operation and the check of its result."""

    call: Callable[[], object]
    outcome: Callable[[object], object]  # reduces a result to a comparable verdict
    accept: Callable[[object], bool]  # compares that verdict with ground truth


class Engine:
    """The freshly imported engine modules an op calls into."""

    def __init__(self) -> None:
        for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        self.cli = importlib.import_module(PACKAGE + ".cli")
        self.oracle = importlib.import_module(PACKAGE + ".oracle")


def _cli_op(engine: Engine, path: Path, expected: tuple) -> Op:
    argv = ["decide", str(path), "--json"]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = engine.cli.main(argv)
        return code, out.getvalue()

    def outcome(result):
        code, text = result
        doc = json.loads(text)
        return (code, doc["verdict"], doc["witness"])

    return Op(call, outcome, lambda got: got == expected)


def _file_ops(engine: Engine, cases: list, work: Path) -> list[Op]:
    """Write each case to an instance file; one CLI op per file."""
    ops = []
    for i, case in enumerate(cases):
        path = work / f"instance-{i:04d}.json"
        path.write_text(json.dumps({"matrices": case.matrices()}), encoding="utf-8")
        ops.append(_cli_op(engine, path, case.expected()))
    return ops


def setup_deep(engine: Engine, seed: int, work: Path) -> list[Op]:
    return _file_ops(engine, instances.deep_pool(seed, DEEP_STRATA), work)


def setup_wide(engine: Engine, seed: int, work: Path) -> list[Op]:
    return _file_ops(engine, instances.wide_pool(seed, WIDE_SINGULARS, WIDE_PER_KIND), work)


def _int_matrix(m) -> instances.IntMat:
    """Entries of a rational Mat2 scaled by a positive integer to integers."""
    entries = m.entries()
    den = lcm(*(e.denominator for e in entries))
    return tuple(int(e * den) for e in entries)  # type: ignore[return-value]


def _fuzz_instance(engine: Engine, seed: int):
    """The instance fuzz_compare(count=1, seed=seed) draws: it takes one child
    seed from `seed` and builds its instance from that."""
    child = random.Random(seed).getrandbits(63)
    return engine.oracle.random_instance(random.Random(child))


def _fuzz_op(engine: Engine, seed: int, instance) -> Op:
    truth: list[bool] = []

    def call():
        return engine.oracle.fuzz_compare(count=1, seed=seed)

    def outcome(report):
        return (report.mortal, report.immortal, report.unknown, report.contradictions,
                report.mortal_unconfirmed)

    def accept(got):
        mortal, immortal, unknown, contradictions, unconfirmed = got
        if not truth:  # search the same instance independently, once
            mats = [_int_matrix(m) for m in instance.matrices]
            truth.append(instances.zero_product_within(mats, ORACLE_BOUND))
        if contradictions or unknown or mortal + immortal != 1:
            return False
        if truth[0]:
            return mortal == 1 and unconfirmed == 0
        return immortal == 1 or unconfirmed == 1

    return Op(call, outcome, accept)


def fuzz_stratum(instance) -> tuple[int, int]:
    """The counts of singular and of invertible members."""
    invertible = sum(m.det() != 0 for m in instance.matrices)
    return len(instance.matrices) - invertible, invertible


def fuzz_pool(engine: Engine, seed: int) -> list[tuple[int, object]]:
    """FUZZ_POOL fuzz_compare seeds with their instances, an equal share from
    each of FUZZ_STRATA.

    The default distribution draws 1 to 4 singular members and, with
    probability 1/2, one invertible member.  An op's cost depends mostly on
    those two counts, so the pool takes the first seeds of each stratum up to
    its expected share.  This keeps the pool's cost mix, and with it p90,
    nearly the same for every seed.
    """
    rng = random.Random(seed)
    quota = FUZZ_POOL // len(FUZZ_STRATA)
    shares = dict.fromkeys(FUZZ_STRATA, 0)
    pool = []
    while len(pool) < quota * len(FUZZ_STRATA):
        op_seed = rng.getrandbits(32)
        instance = _fuzz_instance(engine, op_seed)
        stratum = fuzz_stratum(instance)
        if shares.get(stratum, quota) < quota:
            shares[stratum] += 1
            pool.append((op_seed, instance))
    return pool


def setup_fuzz(engine: Engine, seed: int, work: Path) -> list[Op]:
    return [_fuzz_op(engine, op_seed, instance) for op_seed, instance in fuzz_pool(engine, seed)]


WORKLOADS = {
    "fuzz": setup_fuzz,
    "deep_exponent": setup_deep,
    "wide_pairs": setup_wide,
}


@dataclass
class Pass:
    latencies: list[float]
    failed: int
    outcomes: list


def _verdict(op: Op, result) -> tuple[object, bool]:
    """The op's verdict and whether it matches ground truth."""
    if isinstance(result, Exception):
        return repr(result), False
    try:
        got = op.outcome(result)
    except (ValueError, KeyError, TypeError) as exc:  # unparsable output
        return repr(exc), False
    return got, op.accept(got)


def run_pass(ops: list[Op], keep_outcomes: bool, tracer=None, speed: HostSpeed | None = None) -> Pass:
    """Run every op once, timing only the call; check each result after it.

    With `speed`, the host's speed is sampled between ops, outside their times.
    """
    clock = time.perf_counter
    latencies, outcomes, failed = [], [], 0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        start = clock()
        try:
            result = op.call()
        except Exception as exc:  # a raising op is a failed op; keep measuring
            result = exc
        latencies.append(clock() - start)
        if speed is not None:
            speed.after_op(latencies[-1])
        got, ok = _verdict(op, result)
        if not ok:
            print(f"op {index} wrong result {str(got)[:200]}", file=sys.stderr)
            failed += 1
        if keep_outcomes:
            outcomes.append(got)
    return Pass(latencies, failed, outcomes)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _best(passes: list[Pass]) -> list[float]:
    """Each op's fastest time over the passes."""
    return [min(times) for times in zip(*(p.latencies for p in passes))]


def timed_run(ops: list[Op], seconds: float, speed: HostSpeed | None = None) -> tuple[dict, int, int]:
    """Whole passes until `seconds` of op time, then figures over each op's best time.

    The host is shared: its speed swings by a fifth within seconds, and by as
    much between runs minutes apart; contention only ever adds time.  So
    each op's latency is the fastest of its repeats across passes (as with
    timeit), ops_per_s, p50 and p90 are taken over those per-op times, and
    all are divided by the host's slowdown in this run (see reference.py).
    """
    speed = speed or HostSpeed()
    passes: list[Pass] = []
    while not passes or sum(sum(p.latencies) for p in passes) < seconds:
        passes.append(run_pass(ops, keep_outcomes=False, speed=speed))
    best = _best(passes)
    slowdown = speed.slowdown()
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw_p50, raw_p90 = statistics.median(best), statistics.quantiles(best, n=10)[8]
    metrics = {
        "ops_per_s": _metric(slowdown * len(best) / sum(best), "1/s"),
        "op_p50_ms": _metric(1000 * raw_p50 / slowdown, "ms"),
        "op_p90_ms": _metric(1000 * raw_p90 / slowdown, "ms"),
        "peak_rss_mb": _metric(rss_kib / 1024, "MB"),
    }
    print(
        f"# {len(passes)} passes of {len(ops)} ops; p50/p90 over {len(best)} per-op best times; "
        f"failed_frac {failed / attempted} ({failed}/{attempted})"
    )
    print(
        f"# host slowdown {slowdown:.4f} (from {speed.samples} reference samples); "
        f"raw ops_per_s {len(best) / sum(best):.2f}, op_p50_ms {1000 * raw_p50:.4f}, "
        f"op_p90_ms {1000 * raw_p90:.4f}"
    )
    return metrics, attempted, failed


def traced_run(ops: list[Op], seconds: float, dump: Path,
               speed: HostSpeed | None = None) -> tuple[dict, int, int]:
    from tracing import Tracer

    speed = speed or HostSpeed()
    tracer = Tracer()
    plains: list[Pass] = []
    traceds: list[Pass] = []
    failed = 0
    while not plains or sum(sum(p.latencies) for p in plains + traceds) < seconds:
        plain = run_pass(ops, keep_outcomes=True, speed=speed)
        tracer.install()
        try:
            traced = run_pass(ops, keep_outcomes=True, tracer=tracer, speed=speed)
        finally:
            tracer.uninstall()
        mismatched = sum(a != b for a, b in zip(plain.outcomes, traced.outcomes))
        if mismatched:
            print(f"{mismatched} traced verdicts differ from untraced ones", file=sys.stderr)
        failed += plain.failed + traced.failed + mismatched
        plain.outcomes = traced.outcomes = []  # compared; keep only the times
        plains.append(plain)
        traceds.append(traced)
    tracer.dump_spans(dump)
    slowdown = speed.slowdown()

    passes = len(traceds)
    n_ops = passes * len(ops)
    total, own, calls = tracer.total, tracer.self_time, tracer.calls

    def per_op(table, name):
        return _metric(table[name] / n_ops / slowdown, "s/op")

    def per_pass(name):
        return _metric(calls[name] / passes, "count")

    def share(part, whole):
        return _metric(calls[part] / calls[whole] if calls[whole] else 0.0, "ratio")

    metrics = {
        "pairs.r_next.calls": per_pass("pairs.r_next"),
        "pairs.solve_r_eq_x.self_s": per_op(own, "pairs.solve_r_eq_x"),
        "pairs.solve_ratio_power.self_s": per_op(own, "pairs.solve_ratio_power"),
        "pairs.pair_problem.s": per_op(total, "pairs.pair_problem"),
        "pairs.decide_pair.self_s": per_op(own, "pairs.decide_pair"),
        "pairs.witness_frac": share("pairs.decide_pair.witness", "pairs.decide_pair"),
        "spectral.cheb_solve.s": per_op(total, "spectral.cheb_solve"),
        "spectral.quad_pow.s": per_op(total, "spectral.quad_pow"),
        "spectral.power_similar_identity.calls": per_pass("spectral.power_similar_identity"),
        "decider.decide.s": per_op(total, "decider.decide"),
        "decider.decide.self_s": per_op(own, "decider.decide"),
        "decider.decide_pair.calls": per_pass("pairs.decide_pair"),
        "decider.pairs_per_op": _metric(calls["pairs.decide_pair"] / n_ops, "pairs/op"),
        "linalg.mat_pow.s": per_op(total, "linalg.mat_pow"),
        "linalg.mat_pow.calls": per_pass("linalg.mat_pow"),
        "linalg.char_poly.calls": per_pass("linalg.char_poly"),
        "linalg.max_operand_bits": _metric(tracer.max_operand_bits, "bits"),
        "oracle.search.s": per_op(total, "oracle.search"),
        "oracle.search.calls": per_pass("oracle.search"),
        "oracle.search.found_frac": share("oracle.search.found", "oracle.search"),
        "oracle.fuzz_compare.self_s": per_op(own, "oracle.fuzz_compare"),
        "cli.load_instance.s": per_op(total, "cli.load_instance"),
        "cli.main.self_s": per_op(own, "cli.main"),
        "trace.overhead_frac": _metric(sum(_best(traceds)) / sum(_best(plains)) - 1, "ratio"),
    }
    for label in ("periodic", "disc_pos", "disc_zero", "disc_neg"):
        metrics[f"pairs.decide_pair.s.{label}"] = per_op(total, f"pairs.decide_pair.{label}")
    print(f"# traced: {passes} traced and {passes} untraced passes of {len(ops)} ops")
    return metrics, 2 * n_ops, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"

    speed = HostSpeed()
    try:
        setup_times, setup_ratios = [], []
        for _ in range(SETUP_REPEATS):
            # Each set-up starts from the same heap: the previous pool freed.
            ops = engine = None
            gc.collect()
            shutil.rmtree(work, ignore_errors=True)
            start = time.perf_counter()
            work.mkdir(parents=True)
            engine = Engine()
            ops = WORKLOADS[args.workload](engine, args.seed, work)
            setup_times.append(time.perf_counter() - start)
            # A set-up lasts under a second, so it is scaled by the reference
            # task timed right after it rather than by the run's slowdown.
            setup_ratios.append(setup_times[-1] / time_task())
        setup_s = NOMINAL_S * statistics.median(setup_ratios)

        warm = run_pass(ops[:WARMUP_OPS], keep_outcomes=False)
        if args.trace:
            dump = root / ".bench_work" / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, attempted, failed = traced_run(ops, args.seconds, dump, speed)
        else:
            metrics, attempted, failed = timed_run(ops, args.seconds, speed)
            metrics["setup_s"] = _metric(setup_s, "s")
            print(f"# raw setup_s {statistics.median(setup_times):.5f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed += warm.failed
    attempted += len(warm.latencies)
    print(
        f"# {args.workload} seed {args.seed}: Python {platform.python_version()}, "
        f"{os.cpu_count()} CPUs, setup medians of {SETUP_REPEATS}"
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
