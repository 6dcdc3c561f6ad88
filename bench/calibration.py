"""Machine-speed calibration for timings on a shared machine.

On a shared host the speed this process gets changes by up to twofold
within seconds, as other tenants load the cores it shares. A
``Calibrator`` times a fixed pure-Python integer loop, ``calibration_work``,
every PERIOD_S of wall time from a SIGALRM handler, so that samples fall
inside long operations too, not only between them. ``scaled`` turns an
operation's measured time into its time at reference speed: it removes
the handler's own time from the interval and scales the rest by
REFERENCE_S over the median sample time in a window around the operation.

The loop belongs to the benchmark, so no change to eqspec moves it.
An integer loop was chosen because its slowdown tracks that of eqspec's
interpreter-bound work most closely: on the 2-core VM of the seed
baseline, over one-second medians, the log of a search or verify
operation's time moved 1.1 to 1.2 times as much as the log of this
loop's time (correlation 0.9), against 0.6 to 0.7 times for a loop
over a large list and over twice for one over a large dict; loops of
string, ``Fraction`` or small-eigensolve work tracked it worse still.
Scaling leaves most of the remaining spread on ``scan``, whose long
scans slow a little more than the loop does.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager

PERIOD_S = 0.02
# Samples up to WINDOW_S before an operation starts or after it ends count
# towards its speed, so that short operations get several.
WINDOW_S = 0.1
# calibration_work()'s time at the fast speed of the seed baseline's
# machine (2-core x86_64 VM, Python 3.11.7); times are reported at it.
REFERENCE_S = 0.0005


def calibration_work() -> int:
    total = 0
    for i in range(4000):
        total += (i * i) % 7 ^ (i >> 2)
    return total


class Calibrator:
    """Samples of ``calibration_work``'s time, taken while ``running()``."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._sampling = False

    def _sample(self, signum, frame):
        if self._sampling:  # a signal that arrives during a sample is dropped
            return
        self._sampling = True
        start = time.perf_counter()
        calibration_work()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)
        self._sampling = False

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _between(self, start, end) -> list[float]:
        return self.seconds[bisect_left(self.starts, start):bisect_right(self.starts, end)]

    def net(self, start: float, end: float) -> float:
        """The time from ``start`` to ``end``, less the samples taken in it."""
        return end - start - sum(self._between(start, end))

    def scaled(self, start: float, end: float) -> float:
        """``net(start, end)`` at reference speed."""
        near = self._between(start - WINDOW_S, end + WINDOW_S) or self.seconds
        if not near:  # not calibrated: report the time as measured
            return self.net(start, end)
        return self.net(start, end) * REFERENCE_S / statistics.median(near)
