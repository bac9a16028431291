"""The machine's momentary speed, sampled alongside the work.

The benchmark runs on shared hosts whose speed drifts by up to 1.5x in
phases of seconds to minutes (other tenants load the same cores).  A run
of 20 s cannot average such phases away, so every time the benchmark
reports is scaled to a reference speed: while vfkit works, an interval
timer interrupts it every ``INTERVAL_S`` seconds to run and time a fixed
reference chunk of interpreter work (vfkit's own work is mostly
interpreted: expression trees, ``Fraction`` elimination, ODE right-hand
sides); ``clock()`` leaves the chunks' time out of what it measures.  A
time measured at moment t is multiplied by ``REFERENCE_CHUNK_S / d(t)``,
where d(t) is the median duration of the ``WINDOW`` chunks run nearest to
t.  The result reads as the time the same work takes when the chunk takes
``REFERENCE_CHUNK_S``; both the measured and the scaled times are
recorded.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# About the time of one reference chunk on a quiet 2-core Xeon host (about
# 3.5 ms while other tenants load it); it sets only the scale of the times.
REFERENCE_CHUNK_S = 2.5e-3
WINDOW = 9
INTERVAL_S = 0.1


def reference_chunk():
    """Integer arithmetic, small-object allocation and float work in the
    interpreter; it imports nothing, so it can run before vfkit is loaded."""
    s = 0
    for i in range(22000):
        s += i * i % 7
    table = {}
    for i in range(2800):
        table[i % 97] = (i, i * 0.5, (i, -i))
    x = 0.5
    for _ in range(5500):
        x = x * 0.999 + 1e-3
    return s, len(table), x


class Speedometer:
    """Reference-chunk samples of one process, in the order they ran."""

    def __init__(self):
        self.times = []  # midpoint of each chunk, perf_counter seconds
        self.durations = []
        self.spent = 0.0  # seconds spent in chunks so far
        self._previous = None
        self._busy = False

    def clock(self):
        """perf_counter seconds without the time spent in chunks."""
        return time.perf_counter() - self.spent

    def start(self):
        """Sample every INTERVAL_S seconds of wall time until ``stop``."""
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _tick(self, *_):
        if not self._busy:  # a chunk slower than the interval is not re-entered
            self._busy = True
            try:
                self.sample()
            finally:
                self._busy = False

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def sample(self, count=1):
        """Run the reference chunk ``count`` times; returns the seconds spent."""
        spent = 0.0
        for _ in range(count):
            start = time.perf_counter()
            reference_chunk()
            took = time.perf_counter() - start
            self.times.append(start + took / 2.0)
            self.durations.append(took)
            spent += took
        self.spent += spent
        return spent

    def scale_at(self, t):
        """REFERENCE_CHUNK_S over the median of the WINDOW chunks nearest t."""
        n = len(self.times)
        if n == 0:
            raise ValueError("no reference samples taken")
        lo = hi = bisect.bisect_left(self.times, t)
        while hi - lo < min(WINDOW, n):  # grow towards the nearer sample
            if lo > 0 and (hi == n or t - self.times[lo - 1] <= self.times[hi] - t):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_CHUNK_S / statistics.median(self.durations[lo:hi])

    def scaled(self, start, seconds):
        """A time span measured from ``start``, at reference speed."""
        return seconds * self.scale_at(start + seconds / 2.0)
