"""In-memory span recording for the traced benchmark run.

A span is (name, start, end, parent, item): the benchmark opens one around
each call it makes into a `su21dual` module, nested under the span of the
item being run.  Spans stay in memory and are written out once, when the
run ends.  The untraced run uses `NullTracer`, whose spans cost one
attribute lookup and record nothing.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class NullTracer:
    """Records nothing; the tracer of the untraced run."""

    enabled = False
    item = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    """Records every span of the run in memory."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, item id]
        self._open: list[int] = []
        self.item = None  # id of the item whose spans are being recorded

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, self.item]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def self_times(self, keep=lambda item: True) -> dict[str, float]:
        """Seconds per span name, each span less the time its children
        cover, over the spans whose item id passes `keep`."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, item) in enumerate(self.spans):
            if keep(item):
                totals[name] += end - start - child_time[index]
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "item")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, record)) for record in self.spans], fh)
