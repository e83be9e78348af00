"""Stage timing corrected for the machine's changing speed.

The benchmark shares its machine with other work: the same computation can
take up to twice as long for stretches of a second to tens of seconds. While
a Clock runs, a timer signal interrupts the program every INTERVAL_S and
times a fixed reference loop (small numpy ops and closures, the shape of the
tape's inner loop, and no synkd code). A stage's reference time is its wall
time, less the probes run inside it, times the mean of REF_PROBE_S over the
probe times around it: it reads as if the stage ran at the uncontended
probe speed the benchmark was defined at. A change to the program moves it;
a change in the machine's load mostly does not.
"""
from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.025
PROBE_REPS = 150
# the probe's uncontended time (the faster of its two modes) on the 2-vCPU
# machine, numpy 2.4 with one BLAS thread, where the benchmark was defined
REF_PROBE_S = 0.00045
WINDOW_S = 0.2  # probes this close to a stage also describe its speed

_X0 = np.linspace(-1.0, 1.0, 8 * 16, dtype=np.float32).reshape(8, 16)
_W = np.linspace(-0.2, 0.2, 16 * 16, dtype=np.float32).reshape(16, 16)


def probe() -> float:
    """Seconds the reference loop takes now."""
    start = perf_counter()
    x, tape = _X0, []
    for _ in range(PROBE_REPS):
        y = np.tanh(x @ _W)
        tape.append((y, lambda g, y=y: g * (1.0 - y * y)))
        x = y * 0.5 + _X0
    return perf_counter() - start


class Clock:
    """Samples the machine's speed while open; times stages in seconds and
    in reference seconds."""

    def __init__(self):
        self.at = []      # start time of each probe
        self.took = []    # its duration
        self._previous = None

    def _sample(self, signum, frame):
        if len(self.at) != len(self.took):  # a probe slower than INTERVAL_S
            return
        start = perf_counter()
        self.at.append(start)
        self.took.append(probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _probes(self, start, end):
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        return lo, min(hi, len(self.took))

    def measure(self, start, end):
        """(seconds, reference seconds) of the interval, less the probes run
        inside it."""
        lo, hi = self._probes(start, end)
        secs = end - start - sum(self.took[lo:hi])
        return secs, secs * self.pace(start, end)

    def timed(self, fn, *args, **kwargs):
        """(fn's result, seconds, reference seconds)."""
        start = perf_counter()
        out = fn(*args, **kwargs)
        return (out, *self.measure(start, perf_counter()))

    def pace(self, start, end):
        """Mean of REF_PROBE_S / probe time over the probes from WINDOW_S
        before start to WINDOW_S after end: the share of reference speed the
        machine ran at. Probes come at even wall-clock steps, so the mean is
        a time average."""
        lo, hi = self._probes(start - WINDOW_S, end + WINDOW_S)
        if hi == lo:  # no probe landed near it: use the closest ones
            lo, hi = max(0, lo - 1), min(len(self.took), hi + 1)
        if hi == lo:
            return 1.0
        return statistics.fmean(REF_PROBE_S / t for t in self.took[lo:hi])
