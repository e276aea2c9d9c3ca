"""In-memory span recorder used by the traced benchmark run.

A span is ``[name, start, end, parent, trial]``: the layer call it times,
``perf_counter`` stamps, the index of the enclosing span (or None) and the
trial it belongs to.  Spans stay in memory until :meth:`Tracer.dump` writes
them once, at the end of the run.  With ``enabled=False`` every method is a
pass-through, so the plain run pays one attribute test per call.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.trial = None
        self.spans = []
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)
        self._stack = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.trial]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float) -> None:
        """Accumulate an exact work count computed from array shapes."""
        if self.enabled:
            self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        """Keep the largest value seen (sizes measured against a guard)."""
        if self.enabled:
            self.peaks[name] = max(self.peaks[name], value)

    def child_times(self) -> list:
        """Per span, the summed duration of its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return child

    def self_times(self) -> dict:
        """Total self time per span name: duration minus child durations."""
        totals = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, self.child_times()):
            totals[name] += (end - start) - child
        return dict(totals)

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, trial in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "trial": trial}
                ) + "\n")
