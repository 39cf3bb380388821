"""Span recording and the small statistics the benchmark reports.

Nothing here imports cpbs, so the arithmetic can be tested on its own
(``test_spans.py``).
"""

from __future__ import annotations

import json
import statistics
import time


class Tracer:
    """Spans kept in memory and written out as JSONL when the run ends.

    A span records its name, start, end, the span that was open when it
    started (its parent) and counts attached when it closed.  Its self time
    is its duration minus the time covered by the spans directly inside it.
    Calls too frequent to keep one record each (the per-cluster Bessel
    table) are folded: their time counts as child time of the enclosing
    span, and their calls and counts are summed per name, on the enclosing
    span's record and in ``folded``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.folded: dict[str, dict] = {}
        self._stack: list[dict] = []
        self._next_id = 1

    def open(self, name: str) -> dict:
        span = {
            "id": self._next_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": self.clock(),
            "child_s": 0.0,
            "counts": {},
            "folded": {},
        }
        self._next_id += 1
        self._stack.append(span)
        return span

    def close(self, span: dict, counts: dict | None = None) -> None:
        end = self.clock()
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span['name']!r} closed out of order")
        self._stack.pop()
        duration = end - span["start"]
        span["end"] = end
        span["self_s"] = duration - span["child_s"]
        if counts:
            span["counts"].update(counts)
        if self._stack:
            self._stack[-1]["child_s"] += duration
        self.spans.append(span)

    def fold(self, name: str, seconds: float, counts: dict) -> None:
        targets = [self.folded.setdefault(name, {"calls": 0, "self_s": 0.0})]
        if self._stack:
            parent = self._stack[-1]
            parent["child_s"] += seconds
            targets.append(parent["folded"].setdefault(name, {"calls": 0, "self_s": 0.0}))
        for agg in targets:
            agg["calls"] += 1
            agg["self_s"] += seconds
            for key, value in counts.items():
                agg[key] = agg.get(key, 0) + value

    def totals(self, name: str) -> dict:
        """Calls, summed self time, summed duration and summed counts of one span name."""
        if name in self.folded:
            agg = dict(self.folded[name])
            agg["duration_s"] = agg["self_s"]
            return agg
        out = {"calls": 0, "self_s": 0.0, "duration_s": 0.0}
        for span in self.spans:
            if span["name"] != name:
                continue
            out["calls"] += 1
            out["self_s"] += span["self_s"]
            out["duration_s"] += span["end"] - span["start"]
            for key, value in span["counts"].items():
                out[key] = out.get(key, 0) + value
        return out

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Spans named ``child_name`` opened directly inside a ``parent_name`` span."""
        parents = {span["id"] for span in self.spans if span["name"] == parent_name}
        return sum(1 for span in self.spans if span["name"] == child_name and span["parent"] in parents)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def p50(values) -> float:
    """Median; the mean of the two middle values for an even count."""
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def rate(count, seconds: float) -> float:
    """Work per second of wall time spent on it."""
    if not seconds > 0.0:
        raise ValueError(f"rate over a non-positive time ({seconds!r} s)")
    return count / seconds
