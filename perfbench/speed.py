"""Wall time scaled to a reference machine speed.

On a shared machine the speed of a single thread drifts by tens of percent
over minutes, with the process on the CPU all the time (other tenants share
the cores and caches). A pass measured during a slow minute would then read
as a regression. While a ``SpeedClock`` measures, a timer signal every
``INTERVAL`` seconds runs ``calibration_kernel``, a fixed piece of work made
of small numpy calls and Python bookkeeping like the library's hot paths,
and records how long it took. A measurement is reported as

    (elapsed - time spent calibrating) * REFERENCE_S / mean kernel time,

the time the same work would take on a machine that runs the kernel in
``REFERENCE_S``. The kernel uses only Python and numpy, so a change to the
library moves the reported time and not the scale.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL = 0.05
REFERENCE_S = 1e-3
_ARRAYS = [np.random.default_rng(i).random(12) for i in range(10)]


def calibration_kernel() -> None:
    for _ in range(10):
        for a in _ARRAYS:
            order = np.argsort(a, kind="stable")
            both = np.concatenate((a, a[order]))
            math.fsum(both.tolist())
            np.all(np.isfinite(both))


class SpeedClock:
    def __init__(self):
        self._samples = []
        self.sampled_share = 0.0

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        calibration_kernel()
        self._samples.append(time.perf_counter() - t0)

    def measure(self, fn, *args):
        """Run ``fn(*args)``; return (result, busy seconds, scale).

        Busy seconds exclude calibration; ``busy * scale`` is the reported
        time. ``sampled_share`` is the part of the call's wall time that
        went to calibration.
        """
        self._samples = []
        calibration_kernel()  # warm-up, not a sample
        self._sample(None, None)
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            elapsed = time.perf_counter() - t0
        sampled = sum(self._samples[1:])  # the first sample ran before the call
        self.sampled_share = sampled / elapsed
        self._sample(None, None)
        samples = self._samples
        return result, elapsed - sampled, REFERENCE_S * len(samples) / sum(samples)
