"""Host speed probe for a shared, noisy machine.

On a host shared with other virtual machines the speed of a CPU-bound
Python process drifts by up to 2x over minutes, so two sets of wall-clock
runs of one program can disagree by more than any useful bound. Each
timed run therefore probes the host's speed in the same process, right
before and right after its timed part, with a fixed pure-Python kernel
that shares no code with qek. Timings are then scaled to the speed at
which the kernel takes REFERENCE_S seconds: a change that makes qek faster
moves the scaled figure, a slower host does not.
"""

from __future__ import annotations

import time

# Seconds one kernel run takes on an unloaded 2.0 GHz Xeon vCPU with
# CPython 3.11; scaled figures are "as if the host ran at this speed".
REFERENCE_S = 0.05


def _kernel(reps: int = 540) -> float:
    """Closures over small expression trees, summed along geometric node
    sets into a dict: the kind of work qek's operator loops do."""
    def const(c):
        return lambda t: c

    def power(p):
        return lambda t: t ** p

    def affine(a, b):
        return lambda t: a * t + b

    def prod(f, g):
        return lambda t: f(t) * g(t)

    def add(f, g):
        return lambda t: f(t) + g(t)

    fs = [prod(affine(0.5, 1.0), power(2.0)), add(const(1.5), power(1.0)),
          prod(add(affine(1.0, 0.2), const(0.3)), power(3.0))]
    memo = {}
    total = 0.0
    for r in range(reps):
        for i, f in enumerate(fs):
            coef, node, s = 1.0, 1.0 + 0.01 * r, 0.0
            for _ in range(120):
                s += coef * f(node)
                coef *= 0.93
                node *= 0.9
            memo[r % 7, i] = s
            total += s
    return total


def probe_seconds() -> float:
    """Wall-clock seconds of one kernel run."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
