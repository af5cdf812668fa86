"""Golden answers: what the engine answers on a fixed corpus, one line per instance.

    python3 tools/answers.py > answers.txt

The engine is imported from the ``src/`` next to this script, so each
checkout answers with its own code.  To see every answer a change alters,
run the script in both checkouts and compare:

    (cd parent && python3 tools/answers.py) > parent.txt
    (cd change && python3 tools/answers.py) > change.txt
    diff parent.txt change.txt

Each line is one JSON object with sorted keys:

* ``id``: corpus, seed and position, with ``/3`` when V is scaled by 1/3;
* ``verdict``, ``certificate``, ``witness`` as runs ``[[index, count], ...]``
  and ``exponent_witness``, from ``decide``;
* ``pairs``: for an instance with exactly one invertible member V, the bare
  ``decide_pair(N_i, V, N_j)`` of every ordered pair of singular members in
  row-major order, as ``["witness", k]``, ``["refused", reason]`` or
  ``["raised", exception type, message]``; ``null`` otherwise.

The corpus: the instances ``fuzz_compare`` draws at seeds 0 and 1, 1,000
each, and with ``EntryRange(7, 5)`` at seed 0; the benchmark's ``deep_pool``
and ``wide_pool`` at seed 1.  Every instance with one invertible member is
answered again with V scaled by 1/3.  ``tests/test_answers.py`` pins the
sha256 of the output.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from itertools import groupby
from pathlib import Path
from typing import Callable, Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import instances  # noqa: E402
from mortality2x2 import EntryRange, Instance, Mortal, decide  # noqa: E402
from mortality2x2.oracle import random_instance  # noqa: E402
from mortality2x2.pairs import Witness, decide_pair  # noqa: E402

FUZZ_CORPORA = (("fuzz", 0, EntryRange()), ("fuzz", 1, EntryRange()), ("entry7x5", 0, EntryRange(7, 5)))
FUZZ_COUNT = 1000
POOL_SEED = 1
DEEP_STRATA, WIDE_SINGULARS, WIDE_PER_KIND = 26, 12, 13  # the benchmark's pool sizes


def corpus() -> Iterator[tuple[str, Instance]]:
    """Every instance of the corpus with its id, in a fixed order."""
    for name, seed, entry_range in FUZZ_CORPORA:
        base = random.Random(seed)  # fuzz_compare's child seeds
        for i in range(FUZZ_COUNT):
            yield f"{name}:{seed}:{i}", random_instance(random.Random(base.getrandbits(63)), entry_range)
    pools = (
        ("deep", instances.deep_pool(POOL_SEED, DEEP_STRATA)),
        ("wide", instances.wide_pool(POOL_SEED, WIDE_SINGULARS, WIDE_PER_KIND)),
    )
    for name, cases in pools:
        for i, case in enumerate(cases):
            yield f"{name}:{POOL_SEED}:{i}", Instance.from_rows(case.matrices())


def _outcome(call: Callable[[], object]) -> tuple[object, list | None]:
    """The result of `call`, or None and `["raised", type, message]`."""
    try:
        return call(), None
    except Exception as exc:  # an exception is an answer too
        return None, ["raised", type(exc).__name__, str(exc)]


def _pair_answer(n_left, v, n_right) -> list:
    verdict, raised = _outcome(lambda: decide_pair(n_left, v, n_right))
    if raised:
        return raised
    if isinstance(verdict, Witness):
        return ["witness", verdict.k]
    return ["refused", verdict.reason.value]


def _sole_invertible(instance: Instance) -> Optional[int]:
    invertibles = instance.invertible_indices
    return invertibles[0] if len(invertibles) == 1 else None


def answer(ident: str, instance: Instance) -> str:
    """The line for `instance`: `decide`'s answer and, with one invertible
    member, every bare pair decision."""
    verdict, raised = _outcome(lambda: decide(instance))
    doc = {"id": ident, "verdict": raised or type(verdict).__name__, "certificate": None,
           "witness": None, "exponent_witness": None, "pairs": None}
    if not raised:
        doc["certificate"] = verdict.certificate
        if isinstance(verdict, Mortal):
            doc["witness"] = [[i, len(list(run))] for i, run in groupby(verdict.witness)]
            doc["exponent_witness"] = verdict.exponent_witness
    v_index = _sole_invertible(instance)
    if v_index is not None:
        v = instance.matrices[v_index]
        singulars = [instance.matrices[i] for i in instance.singular_indices]
        doc["pairs"] = [_pair_answer(a, v, b) for a in singulars for b in singulars]
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def lines() -> Iterator[str]:
    """The output, one line per answered instance."""
    for ident, instance in corpus():
        yield answer(ident, instance)
        i = _sole_invertible(instance)
        if i is not None:
            mats = instance.matrices
            yield answer(ident + "/3", Instance(mats[:i] + (mats[i].scale(Fraction(1, 3)),) + mats[i + 1:]))


def main() -> int:
    for line in lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
