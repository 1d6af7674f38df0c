"""In-memory spans for the traced run, and their self-time arithmetic.

A span is a named interval with the index of the span that was open when it
started.  Spans stay in memory until the run ends; nothing is written while a
job is being timed.
"""

import contextlib
import functools
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Collects spans; ``span`` nests by call structure, ``add`` records a finished one."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts = defaultdict(float)
        self._open: list[int] = []

    @property
    def current(self):
        return self._open[-1] if self._open else None

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), float("nan"), self.current))
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index].end = self.clock()

    def add(self, name, start, end):
        """Record an interval measured elsewhere as a child of the open span."""
        self.spans.append(Span(name, start, end, self.current))

    def count(self, name, amount):
        self.counts[name] += amount

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def self_times(spans):
    """Duration of each span minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so the result is never negative.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children[index]):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


def descendants(spans, root):
    """Indices of every span below ``root``."""
    below = set()
    for index, span in enumerate(spans):
        parent = span.parent
        while parent is not None:
            if parent == root or parent in below:
                below.add(index)
                break
            parent = spans[parent].parent
    return below


def summarize(spans, within=None):
    """Per-name count, total, median and self seconds, optionally below one span."""
    selves = self_times(spans)
    keep = descendants(spans, within) if within is not None else range(len(spans))
    durations = defaultdict(list)
    self_total = defaultdict(float)
    for index in keep:
        span = spans[index]
        durations[span.name].append(span.end - span.start)
        self_total[span.name] += selves[index]
    return {
        name: {
            "count": len(values),
            "total_s": sum(values),
            "median_s": statistics.median(values),
            "self_s": self_total[name],
        }
        for name, values in durations.items()
    }
