"""In-memory spans around the benchmark's calls into zeroherald.

A disabled tracer calls straight through, so untraced passes pay one
attribute test per call. An enabled tracer records one span per call:
name, start, end, parent span and pass id. With allocation tracing on
it also records the tracemalloc peak the call allocated above what was
live when it started; tracemalloc slows Python-heavy calls several
fold, so those passes give peaks, not times. Spans stay in memory until
the run ends; nothing is written while passes are timed.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a pass span
    pass_id: int
    peak_alloc_bytes: int  # -1 where not measured


class Tracer:
    def __init__(self):
        self.enabled = False
        self.alloc = False
        self.spans: list[Span] = []
        self._pass_index = -1
        self._pass_id = -1

    def start(self, alloc: bool) -> None:
        self.enabled = True
        self.alloc = alloc
        if alloc:
            tracemalloc.start()

    def stop(self) -> None:
        if self.alloc:
            tracemalloc.stop()
        self.enabled = self.alloc = False

    @contextmanager
    def pass_span(self, pass_id: int):
        """Root span of one pass; calls made inside become its children."""
        if not self.enabled:
            yield
            return
        self._pass_id = pass_id
        self._pass_index = len(self.spans)
        span = Span("pass", time.perf_counter(), 0.0, -1, pass_id, -1)
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._pass_index = -1

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        if self.alloc:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            peak = tracemalloc.get_traced_memory()[1] - base if self.alloc else -1
            self.spans.append(Span(name, start, end, self._pass_index, self._pass_id, peak))

    def self_times(self, pass_ids) -> list[dict[str, float]]:
        """For each given pass, each span name's summed self time in seconds.

        A span's self time is its duration minus its children's. Calls
        within one pass run one after another, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out = {pass_id: {} for pass_id in pass_ids}
        for span, inner in zip(self.spans, child_time):
            if span.pass_id in out:
                per_pass = out[span.pass_id]
                per_pass[span.name] = per_pass.get(span.name, 0.0) + (span.end - span.start - inner)
        return list(out.values())

    def peak_alloc(self, pass_ids) -> list[dict[str, int]]:
        """For each given pass, each span name's largest allocation peak in bytes."""
        out = {pass_id: {} for pass_id in pass_ids}
        for span in self.spans:
            if span.pass_id in out:
                per_pass = out[span.pass_id]
                per_pass[span.name] = max(per_pass.get(span.name, -1), span.peak_alloc_bytes)
        return list(out.values())

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
