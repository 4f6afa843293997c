"""In-memory span recorder for the traced run, and the order statistics the
benchmark reports.

A span is (name, start, end, parent index, run id). Spans nest by call
order: a span opened while another is open becomes its child. Nothing is
written while the workload runs; the caller reads the spans afterwards.
"""

import re
import time
from collections import defaultdict
from contextlib import contextmanager

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TAIL_BEYOND = 10  # samples beyond the reported tail order statistic


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError.

    A name starts with a letter or digit and has at most 64 characters from
    ``[A-Za-z0-9_.-]``.
    """
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def tail_statistic(values, beyond: int = TAIL_BEYOND):
    """The highest order statistic with ``beyond`` samples above it.

    With the default this is the 11th-largest value. Returns
    ``(value, percentile, count)``, where ``percentile`` is the share of
    samples at or below the value, in percent.
    """
    ordered = sorted(values, reverse=True)
    if len(ordered) <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {len(ordered)}")
    n = len(ordered)
    return ordered[beyond], 100.0 * (n - beyond) / n, n


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    """Records spans, counts and sampled values of one traced run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, run]
        self.counts = defaultdict(int)
        self.values = defaultdict(list)
        self.run = None
        self._open = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(args, result)`` runs on return."""
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return traced

    def busy(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_time(self, name: str) -> float:
        """Duration of the spans called ``name`` minus the part of each that
        its child spans cover."""
        children = defaultdict(list)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        return sum(end - start - covered_length(children[i], start, end)
                   for i, (n, start, end, _, _) in enumerate(self.spans)
                   if n == name)
