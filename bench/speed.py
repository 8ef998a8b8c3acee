"""The machine's speed, sampled between instances, and times scaled by it.

A shared host runs the same Python code at speeds that differ by up to half
for stretches of ten seconds or more (neighbouring tenants come and go), so
raw wall times of two runs of the same code often differ by more than any
change worth measuring.  The worker therefore times a fixed calibration
kernel, made only of standard-library work of the kinds the program does
(tuples and dicts keyed by tuples, sorting, frozensets, Fractions, JSON),
between instances.  `scale` turns each raw time into the time it would take
at NOMINAL_KERNEL_S per kernel call: raw time x NOMINAL_KERNEL_S / the
median kernel time around it.  The kernel uses no radindex code, so a change
to the program moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
import time
from fractions import Fraction

# The kernel's median time per call on a 2-vCPU x86-64 cloud host in its
# faster phases (Python 3.11); scaled times are raw times on that host.
NOMINAL_KERNEL_S = 0.0003
# Samples are taken in batches of this many calls, one batch after any
# instance that ends at least REF_EVERY_S after the previous batch.
BATCH = 3
REF_EVERY_S = 0.025
# A time is scaled by the median of the samples within this many seconds
# of its interval, and at least MIN_SAMPLES (the nearest ones) otherwise.
WINDOW_S = 1.0
MIN_SAMPLES = 6


def kernel() -> int:
    vectors = {}
    for i in range(40):
        v = tuple((i * j) % 5 for j in range(10))
        vectors[i] = tuple(a + b for a, b in zip(v, vectors.get(i - 1, (0,) * 10)))
    counts: dict = {}
    for i in range(150):
        key = (i % 17, i * 31 % 101)
        counts[key] = counts.get(key, 0) + i
    ordered = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    sets = {frozenset(range(i % 9)) for i in range(40)}
    x = Fraction(0)
    for i in range(1, 12):
        x += Fraction(1, i)
    text = json.dumps({str(k): list(v) for k, v in vectors.items()}, sort_keys=True)
    return len(ordered) + len(sets) + len(text) + x.numerator % 7


class Sampler:
    """Kernel samples (end time, seconds) of one process."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._last = float("-inf")

    def batch(self, count: int = BATCH):
        # Without the garbage collector, whose passes take longer as the
        # program's caches fill, the kernel's time depends on the machine only.
        gc.disable()
        try:
            for _ in range(count):
                t0 = time.perf_counter()
                kernel()
                t1 = time.perf_counter()
                self.samples.append((t1, t1 - t0))
        finally:
            gc.enable()
        self._last = time.perf_counter()

    def maybe(self):
        """A batch, if the last one is REF_EVERY_S old."""
        if time.perf_counter() - self._last >= REF_EVERY_S:
            self.batch()


def scale(intervals, samples) -> list[float]:
    """Scaled seconds of each (start, seconds) interval, given the kernel
    samples (end time, seconds) of the same process, in time order."""
    ends = [t for t, _ in samples]
    out = []
    for start, seconds in intervals:
        lo = bisect.bisect_left(ends, start - WINDOW_S)
        hi = bisect.bisect_right(ends, start + seconds + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(ends, start)
            lo = max(0, mid - MIN_SAMPLES // 2)
            hi = min(len(ends), lo + MIN_SAMPLES)
            lo = max(0, hi - MIN_SAMPLES)
        local = statistics.median(s for _, s in samples[lo:hi])
        out.append(seconds * NOMINAL_KERNEL_S / local)
    return out
