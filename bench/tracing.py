"""Spans and counters recorded by the benchmark around its calls into the package.

A span is (name, start, end).  Spans stay in memory until the run ends.
Untraced passes use NullTracer, which records nothing, so the two kinds of
pass run the same task code.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple[str, float, float]] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}

    @contextmanager
    def span(self, name: str):
        start = self.clock()
        try:
            yield
        finally:
            self.spans.append((name, start, self.clock()))

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def busy(self, scale) -> tuple[dict[str, float], Counter]:
        """Total seconds, each span passed through scale(start, seconds), and
        the number of spans per name."""
        seconds: dict[str, float] = {}
        calls: Counter = Counter()
        for name, start, end in self.spans:
            seconds[name] = seconds.get(name, 0.0) + scale(start, end - start)
            calls[name] += 1
        return seconds, calls


class NullTracer:
    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, n: int = 1) -> None:
        pass

    def peak(self, name: str, value: int) -> None:
        pass
