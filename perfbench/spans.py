"""In-memory spans recorded by the benchmark around calls into kreinlab.

A span has a name, start, end, parent span and op id.  Spans live in a list
until the run ends; `self_times` subtracts from each span the time its
children cover.  With tracing disabled, `call` is a plain function call.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), inside a span named `name` when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = {"name": name, "op": self.op, "parent": parent,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float) -> None:
        """Accumulate a count measured at a layer boundary."""
        if self.enabled:
            self.counts[name] += value

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time covered by its children
        (children of one span never overlap: the benchmark is one thread)."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def summary(self, op_count: int, scales: dict[int, float]) -> dict:
        """{name: (calls per op, self seconds per op)} and the share of
        op wall time covered by layer spans.  Each span's times are
        multiplied by its op's entry in `scales`."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        op_wall = covered = 0.0
        for s, own in zip(self.spans, self.self_times()):
            scale = scales[s["op"]]
            calls[s["name"]] += 1
            self_s[s["name"]] += own * scale
            if s["name"] == "op":
                op_wall += (s["end"] - s["start"]) * scale
                covered += (s["end"] - s["start"] - own) * scale
        per_op = max(op_count, 1)
        layers = {name: (calls[name] / per_op, self_s[name] / per_op)
                  for name in calls if name != "op"}
        return {"layers": layers, "coverage": covered / op_wall if op_wall else 0.0}

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))
