"""Correction of wall times for the speed phases of a shared host.

On a shared machine the same work can take half as long again, for moments
or for a whole run.  `HostSpeed` runs a fixed pure-Python kernel between
operations, at most every EVERY_S seconds.  `correct` scales each timed
interval by REFERENCE_KERNEL_S / (median kernel time around the interval):
the interval as it would have taken on the reference machine running at
full speed.  The kernel does not call maclane, and it runs with the garbage
collector off, so a library that keeps more objects alive cannot slow the
kernel through longer collection passes.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

# Fastest kernel time on the reference machine (2-vCPU Xeon at 2.1 GHz,
# Python 3.11.7).  Reported times are in that machine's seconds.
REFERENCE_KERNEL_S = 0.00120
# Least time between two samples of the kernel between operations.
EVERY_S = 0.05
# Samples within this many seconds of an interval give its local kernel
# time: wide enough to smooth the kernel's own jitter, narrow enough to
# follow speed phases of a few seconds.
WINDOW_S = 1.0


def kernel():
    """Rational sums, an integer polynomial product mod p, and many small
    tuples and strings: the arithmetic and the allocation of the library's
    inner loops and of interpreter start-up."""
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    a = range(1, 60)
    out = [0] * 120
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            out[i + j] = (out[i + j] + x * y) % 7
    rows = [(i, i * i, str(i)) for i in range(3000)]
    return total, out, len(rows)


def time_kernel() -> tuple[float, float]:
    """(start, seconds) of one kernel run with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return start, time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    def __init__(self):
        self.at = []
        self.took = []

    def sample(self) -> None:
        start, seconds = time_kernel()
        self.at.append(start)
        self.took.append(seconds)

    def tick(self) -> None:
        """Sample unless the last sample is younger than EVERY_S."""
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def local(self, start: float) -> float:
        """Median kernel time of the samples within WINDOW_S of a moment,
        or of the nearest two on each side when there are fewer than five."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, start + WINDOW_S)
        if hi - lo < 5:
            i = bisect.bisect(self.at, start)
            lo, hi = max(0, i - 2), i + 2
        return statistics.median(self.took[lo:hi])

    def correct(self, intervals):
        """[(start, seconds)] -> seconds on the reference machine."""
        return [seconds * REFERENCE_KERNEL_S / self.local(start) for start, seconds in intervals]

    def slowdown(self) -> float:
        """Median kernel time over the reference one."""
        return statistics.median(self.took) / REFERENCE_KERNEL_S
