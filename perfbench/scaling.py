"""Scaling curves of `decide` along the exponent k and the member count n.

    python3 perfbench/scaling.py [--seed 1]

Prints one JSON line per point and exits non-zero if any verdict differs
from the ground truth in ``instances.py``.  These curves are not gated and
take a few minutes; each point is a single timing.

* k axis: one instance per deep_exponent kind at each k in K_AXIS, decided
  through the library call ``decide``, since instance files cannot carry a
  witness entry of more than 4300 digits.
* n axis: one certified immortal instance per wide_pairs kind at each n in
  N_AXIS, all n^2 pairs refused.  n = 640 is left out: the pair loop grows
  as n^2, so one decide would take about two minutes.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

import instances

K_AXIS = (10, 1_000, 10_000, 20_000)
N_AXIS = (10, 40, 160)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from mortality2x2 import Immortal, Instance, Mortal, decide

    def timed(case) -> tuple[float, tuple]:
        instance = Instance.from_rows(case.matrices())
        start = time.perf_counter()
        verdict = decide(instance)
        seconds = time.perf_counter() - start
        if isinstance(verdict, Mortal):
            return seconds, (0, "mortal", list(verdict.witness))
        return seconds, (1, "immortal" if isinstance(verdict, Immortal) else "unknown", None)

    rng = random.Random(args.seed)
    wrong = 0
    points = [("k", kind, k, instances.deep_case(rng, kind, polys[0], k))
              for kind, polys in instances.DEEP_POLYS.items() for k in K_AXIS]
    points += [("n", kind, n, instances.wide_case(rng, kind, polys[0], n))
               for kind, polys in instances.WIDE_POLYS.items() for n in N_AXIS]
    for axis, kind, size, case in points:
        seconds, got = timed(case)
        ok = got == case.expected()
        wrong += not ok
        print(json.dumps({"axis": axis, "kind": kind, axis: size, "seconds": seconds, "correct": ok}), flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
