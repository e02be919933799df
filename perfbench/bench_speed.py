"""Core-speed calibration for timings taken on a shared host.

On a host shared with other tenants a core's speed swings by up to 1.7x for
seconds to minutes at a time, and every timing of the program swings with it.
``CoreSpeed`` runs a small fixed kernel (FFTs and elementwise work on a
48 x 256 array, then an interpreter loop: the same kinds of work as a
stripflow step) every ``EVERY`` seconds between integrator steps, outside the
timed calls.  A timing taken between ``t0`` and ``t1`` is scaled by
``factor(t0, t1)``: ``REF_S`` over the median kernel time of the samples
taken in that interval and of the ``SPAN`` samples on each side of it.  The
scaled figure is the time at the core speed at which the kernel takes
``REF_S``, so a slow phase of the host cancels out, while a change to the
program, which does not touch the kernel, shows in full.

The kernel's own time is counted in ``spent`` so that callers can take it out
of an interval that it fell into.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

# A round figure for the kernel time on a lightly loaded core of the 2-core
# KVM Xeon host the benchmark was written on (1.7 ms unloaded, 2.4 ms typical).
# Only a scale: it converts kernel units back to seconds.
REF_S = 2.0e-3


class CoreSpeed:
    EVERY = 0.1  # seconds between samples: about 2 % of the run
    SPAN = 5  # samples on each side of an interval that its factor uses

    def __init__(self):
        rng = np.random.default_rng(20261017)
        self._a = rng.standard_normal((48, 256))
        self._b = rng.standard_normal((48, 256))
        self._kernel()  # warm-up: FFT plans, first-touch pages
        self.times, self.durations = [], []
        self.spent = 0.0
        self._last = float("-inf")

    def _kernel(self):
        x = self._a
        for _ in range(6):
            f = np.fft.rfft(x, axis=1)
            f *= 0.5
            x = np.fft.irfft(f, n=256, axis=1) + self._b * x
        s = 0
        for i in range(20000):
            s += i * i
        return x, s

    def sample(self):
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.durations.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1

    def tick(self, now: float):
        """Sample if the last sample is at least ``EVERY`` seconds old."""
        if now - self._last >= self.EVERY:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """``REF_S`` over the median kernel time around [t0, t1]."""
        lo = max(bisect_left(self.times, t0) - self.SPAN, 0)
        hi = bisect_right(self.times, t1) + self.SPAN
        window = self.durations[lo:hi]
        if not window:
            raise RuntimeError("no core-speed samples taken")
        return REF_S / statistics.median(window)
