"""Timings normalized to a reference speed of the CPU.

On a shared 2-vCPU virtual machine (Intel Xeon) the same pure-Python
loop took between 1x and 2x its fastest time from one tenth of a second
to the next, its 10-second averages drifted by more than 50% within a
few minutes, and its CPU time always equalled its wall time. A pass of
a workload takes 10 to 35 seconds there, so the passes that fit in one
run cannot average that away. So while set-up and passes run, a timer
signal runs a fixed reference computation every ``INTERVAL`` seconds, in
this same thread, and records how long it took. Each operation's
latency, minus the time those samples took, is scaled by REFERENCE_S
over the median sample duration in a window around the operation: the
result is the operation's time at the speed where one sample takes
REFERENCE_S. In twelve runs of one pass of rank-n32 whose unscaled time
ranged from 15 to 28 seconds, the scaled times spread by 2% between
quartiles. The reference computation is the benchmark's own code, so a
change to the program can alter its duration only through the state of
the caches and of the heap.
"""

from __future__ import annotations

import signal
import statistics
from array import array
from bisect import bisect_left
from math import gcd
from time import perf_counter

INTERVAL = 0.05
WINDOW = 0.5  # seconds of samples taken on each side of an operation
REFERENCE_S = 0.0003  # a typical sample duration on the machine above


def reference() -> int:
    """Interpreter-bound integer arithmetic plus dictionary and sorting
    work; of the computations tried, its speed tracked the workloads'
    best. It creates no tuples or other objects the collector tracks but
    one dictionary and one list."""
    x = 0x9E3779B97F4A7C15
    total = 0
    table = {}
    for i in range(1, 600):
        x = (x * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF
        total += gcd(x, 2 * i + 1)
        table[x % 100003] = x >> 64
    return total + sorted(table.values())[-1]


class Speedometer:
    """Samples the reference speed while it is entered (as a context manager)."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        reference()
        self.at.append(start)
        self.took.append(perf_counter() - start)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def sampled(self, start: float, end: float) -> float:
        """Time the samples took between ``start`` and ``end``.

        A sample runs inside whatever code was executing when the signal
        arrived, so it lies wholly inside or wholly outside any interval
        whose ends the interrupted code timed itself.
        """
        return sum(self.took[bisect_left(self.at, start):bisect_left(self.at, end)])

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median sample around ``start`` .. ``end``."""
        lo, hi = bisect_left(self.at, start - WINDOW), bisect_left(self.at, end + WINDOW)
        if hi == lo:
            raise RuntimeError("no speed samples around the interval")
        return REFERENCE_S / statistics.median(self.took[lo:hi])

    def normalized(self, start: float, end: float) -> float:
        """Time from ``start`` to ``end`` outside the samples, at the reference speed."""
        return (end - start - self.sampled(start, end)) * self.factor(start, end)
