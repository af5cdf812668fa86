"""Layer spans and counters for the traced benchmark run.

The engine is not edited: each traced function is wrapped from outside by
rebinding its name in every ``mortality2x2`` module that holds it, and the
original bindings are restored afterwards.  A span records name, start, end,
parent span and the op it belongs to; self time is a span's duration minus
the time its child spans cover.  Hot leaves get count-only wrappers.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

from instances import regime

# (module, function) pairs wrapped with a timed span.
SPANS = (
    ("cli", "main"),
    ("cli", "load_instance"),
    ("decider", "decide"),
    ("pairs", "decide_pair"),
    ("pairs", "pair_problem"),
    ("pairs", "solve_r_eq_x"),
    ("pairs", "solve_ratio_power"),
    ("spectral", "cheb_solve"),
    ("spectral", "quad_pow"),
    ("linalg", "mat_pow"),
    ("oracle", "search"),
    ("oracle", "fuzz_compare"),
)
# Hot leaves: counted, not timed.
COUNTS = (
    ("pairs", "r_next"),
    ("spectral", "power_similar_identity"),
    ("linalg", "char_poly"),
)
PACKAGE = "mortality2x2"
_KEEP_SPANS = 5_000  # spans kept in memory for the span dump


def _max_bits(m) -> int:
    return max(max(e.numerator.bit_length(), e.denominator.bit_length()) for e in m.entries())


class Tracer:
    """Aggregates spans and counts while installed; `op` tags new spans."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.max_operand_bits = 0
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._saved: list[tuple] = []
        self._regimes: dict[int, tuple] = {}

    def _span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        stack, total, self_time, calls, spans = (
            self._stack, self.total, self.self_time, self.calls, self.spans
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                total[name] += elapsed
                self_time[name] += elapsed - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
                if len(spans) < _KEEP_SPANS:
                    spans.append((span_id, name, start, end, parent, self.op))
            if after is not None:
                after(args, result, elapsed)
            return result

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_decide_pair(self, args, result, elapsed) -> None:
        v = args[1]
        cached = self._regimes.get(id(v))
        if cached is None or cached[0] is not v:
            cached = (v, regime(v.entries()))
            self._regimes[id(v)] = cached
        self.total["pairs.decide_pair." + cached[1]] += elapsed
        if type(result).__name__ == "Witness":
            self.calls["pairs.decide_pair.witness"] += 1

    def _after_search(self, args, result, elapsed) -> None:
        if result is not None:
            self.calls["oracle.search.found"] += 1

    def _after_mat_pow(self, args, result, elapsed) -> None:
        self.max_operand_bits = max(self.max_operand_bits, _max_bits(result))

    def install(self) -> None:
        """Rebind every traced function in every loaded engine module."""
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        hooks = {
            "pairs.decide_pair": self._after_decide_pair,
            "oracle.search": self._after_search,
            "linalg.mat_pow": self._after_mat_pow,
        }
        for kind, targets in (("span", SPANS), ("count", COUNTS)):
            for module_name, fn_name in targets:
                name = f"{module_name}.{fn_name}"
                original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], fn_name)
                if kind == "span":
                    wrapped = self._span(name, original, hooks.get(name))
                else:
                    wrapped = self._count(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self._regimes.clear()

    def dump_spans(self, path) -> None:
        """Write the kept spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                ) + "\n")
