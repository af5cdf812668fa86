"""A fixed reference task that measures how fast the shared host runs right now.

The benchmark runs on a few cores of a host shared with other tenants, whose
load slows every process on it by up to a third, for seconds or for minutes.
A run therefore times this task, which is stdlib-only and independent of the
engine, between its ops.  A low percentile of its times over the run,
compared with ``NOMINAL_S``, is the factor by which the whole run was
slowed.  The end-to-end times are divided by that factor, so they read as
times on an unloaded host and a slow host does not show as a slow commit.
A set-up, which lasts under a second, is instead scaled by the time of the
task run right after it.

The percentile matches how op times are taken: each op's time is its
fastest of the run's six to ten passes, which lands near the 10th
percentile of the host's speed over the run.  The reference's own minimum,
over some 150 samples, would land lower, and how much lower varies from
run to run.

The task mixes the work the engine does: ``Fraction`` arithmetic, big-integer
2x2 matrix products and JSON round trips, each about a third of its time.
A change to the engine cannot move it.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

# 10th-percentile time of `task` on an unloaded 2-vCPU host with CPython
# 3.11; it only sets the scale the times are reported at.
NOMINAL_S = 0.0040
SAMPLE_EVERY_S = 0.2  # op time between two samples of the task
PERCENTILE = 0.1

_DOC = {"matrices": [[[i, -i], [7 * i, 3]] for i in range(60)]}


def task() -> int:
    """A fixed amount of Fraction, big-integer and JSON work."""
    a = Fraction(3, 7)
    m = [Fraction(1), Fraction(2, 3), Fraction(-5, 4), Fraction(7, 9)]
    for _ in range(30):
        m = [m[0] * a + m[1], m[1] * a - m[2], m[2] + m[3] * a, m[3] - m[0]]
        m = [x.limit_denominator(10**6) for x in m]
    p = (1, 0, 0, 1)
    for _ in range(1500):
        p = (3 * p[0] + p[1], p[0] + 2 * p[1], 3 * p[2] + p[3], p[2] + 2 * p[3])
    n = 0
    for _ in range(20):
        n += len(json.loads(json.dumps(_DOC))["matrices"])
        n += len(", ".join(f"{i}/{i + 1}" for i in range(50)))
    return n + p[0] % 1_000_003 + m[0].numerator


def time_task() -> float:
    """Seconds one run of `task` takes now."""
    start = time.perf_counter()
    task()
    return time.perf_counter() - start


class HostSpeed:
    """The times of `task` sampled so far in this process."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self._since = 0.0  # op time since the last sample

    @property
    def samples(self) -> int:
        return len(self.times)

    def sample(self) -> None:
        self.times.append(time_task())
        self._since = 0.0

    def after_op(self, seconds: float) -> None:
        """Count an op's time; sample the task once enough has passed."""
        self._since += seconds
        if self._since >= SAMPLE_EVERY_S:
            self.sample()

    def slowdown(self) -> float:
        """How much slower than nominal the host ran, at the PERCENTILE of its speed."""
        if not self.times:  # no op ran long enough to take a sample
            self.sample()
        times = sorted(self.times)
        return times[int(PERCENTILE * (len(times) - 1))] / NOMINAL_S
