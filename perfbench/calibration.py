"""Machine-speed calibration of the op timings.

The 2-vCPU machine this benchmark was written on changes speed for minutes
at a time: one fixed propagator call took 0.25 s per call in one minute and
0.46 s a few minutes later, with CPU time equal to wall time and almost no
steal.  A fixed kernel owned by the benchmark, timed between ops, slows down
with it, so op timings are reported at a nominal speed: each op's wall time
times NOMINAL_S over the median kernel time within WINDOW_S of the op.

The kernel has two halves of about equal time, in the styles of the
program's two kinds of work: a Python loop over small numpy arrays (ODE and
series layers) and vectorised arithmetic on a 256 KB array (Monte Carlo).
It never calls the package, so a change to the program cannot change it.
Raw wall times are kept in the run record.
"""
from __future__ import annotations

import bisect
import statistics
import time

NOMINAL_S = 7.0e-3  # kernel time at the nominal speed, about this machine's typical
WINDOW_S = 10.0  # kernel samples this close to an op set its speed

_clock = time.perf_counter


class SpeedMeter:
    """Kernel samples taken between ops, and the speed they imply."""

    def __init__(self, np):
        self.np = np
        self._array = np.random.default_rng(0).standard_normal((1 << 10, 32)) - 0.3
        self.times: list[float] = []  # sample midpoints, increasing
        self.seconds: list[float] = []

    def _kernel(self) -> float:
        np = self.np
        y = np.array([0.0, 1.0])
        total = 0.0
        for i in range(1000):
            y = y + 1e-3 * np.array([y[1], -y[0] * (1.0 + 1e-4 * i)])
            total += float(y[0])
        return total + float(np.exp(-0.01 * (self._array**4).sum(axis=1)).sum())

    def sample(self) -> None:
        t0 = _clock()
        self._kernel()
        t1 = _clock()
        self.times.append(0.5 * (t0 + t1))
        self.seconds.append(t1 - t0)

    def nominal(self, raw_s: float, start: float) -> float:
        """An op's wall time at the nominal speed; `start` is its start time."""
        mid = start + 0.5 * raw_s
        lo = bisect.bisect_left(self.times, mid - WINDOW_S)
        hi = bisect.bisect_right(self.times, mid + WINDOW_S)
        near = self.seconds[lo:hi] or self.seconds
        return raw_s * NOMINAL_S / statistics.median(near)
