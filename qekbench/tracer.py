"""Span recording around the calls into each qek layer, from outside qek.

A span wraps a module attribute that callers look up at call time (for
example ``qek.inequalities.ek_series``), so nothing inside ``src/qek``
changes. Each span records its name, start, end, parent span, a label
(the q bucket or theorem of the call) and a count read from the call's
result (terms used, factors, operator evaluations). Spans stay in memory
until the run ends and are then written out as tab-separated lines.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict


def q_label(q) -> str:
    """Bucket name of a deformation base, e.g. 0.99 -> "q099"."""
    return f"q{round(getattr(q, 'q', q) * 100):03d}"


class Tracer:
    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, label, count)
        self.spans: list[tuple] = []
        self._stack = [-1]
        self._patched: list[tuple] = []

    def wrap(self, module, attr: str, name: str, label=None, count=None) -> None:
        """Replace ``module.attr`` by a wrapper that records one span per
        call. ``label(args)`` and ``count(result)`` fill the span fields."""
        fn = getattr(module, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            tag = label(args) if label is not None else ""
            n = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tag, n)

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tlabel\tcount\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


class SpanStats:
    """Aggregates over the recorded spans, grouped by span name."""

    def __init__(self, spans):
        child_ns = [0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.by_label = defaultdict(list)
        for i, (name, start, end, _, label, n) in enumerate(spans):
            dur = end - start
            self.total_ns[name] += dur
            self.self_ns[name] += dur - child_ns[i]
            self.calls[name] += 1
            self.counts[name] += n
            if label:
                self.by_label[name, label].append(dur)

    def total_s(self, name: str) -> float:
        return self.total_ns[name] / 1e9

    def self_s(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def durations(self, name: str, label: str) -> list[int]:
        """Durations in ns of the spans with this name and label."""
        return self.by_label.get((name, label), [])


def p50(durations) -> float:
    """Median of the durations; 0 when the workload made no such call."""
    return statistics.median(durations) if durations else 0.0


def tail(durations) -> float:
    """The highest percentile with at least ten samples beyond it: the
    duration that exactly ten samples exceed (the smallest one when there
    are fewer than eleven); 0 when there are none."""
    durs = sorted(durations)
    return durs[max(len(durs) - 11, 0)] if durs else 0.0
