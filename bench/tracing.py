"""Spans around the benchmark's own calls into braidrep.

A span records the name of the public function called, its start and end
(``time.perf_counter`` seconds), the index of the enclosing span and the id
of the op it belongs to. Spans are kept in memory and written out once, when
the run ends. The first word of a span name, before the dot, is the layer:
the braidrep module called, or ``bench`` for the op itself.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value=1):
        pass

    def peak(self, name, value):
        pass


class Tracer:
    """Tracing on: one span per call, plus named counters and maxima."""

    enabled = True

    def __init__(self):
        self.spans: list = []      # (name, start, end, parent, op)
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self.op_id: int | None = None
        self.op_scale: dict[int, float] = {}   # op id -> time factor
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)

    def count(self, name, value=1):
        self.counts[name] += value

    def peak(self, name, value):
        if value > self.peaks[name]:
            self.peaks[name] = value

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover,
        each multiplied by the factor of its op (1 if it has none)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, op) in enumerate(self.spans):
            out[name] += ((end - start) - child[idx]) * self.op_scale.get(op, 1.0)
        return dict(out)

    def write(self, path) -> None:
        """Raw spans, and the factor of each op."""
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "op_scale": self.op_scale}, fh)
