"""Machine speed around and during a timed region, to put times in reference seconds.

On a shared host the speed of this process drifts by tens of percent over
seconds and by more over tens of minutes (on a 2-vCPU Intel Xeon VM the
same seeds ran 29-68% slower in one set of runs than in another 40 minutes
later), so raw wall times of two sets of runs are not comparable. A
``SpeedMeter`` times a fixed numpy kernel that does not touch wxleak:
``KERNELS_AROUND`` times right before the region and right after it and,
when ``sampling``, from a timer signal every ``PERIOD_S`` inside it. A time
in reference seconds is the wall time minus the time spent in those timer
probes, multiplied by ``REFERENCE_KERNEL_S`` over the mean kernel time. A
change to wxleak leaves the kernel alone, so it moves reference seconds as
it would move wall seconds at a steady machine speed.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PERIOD_S = 0.2
KERNEL_STEPS = 50
KERNELS_AROUND = 5
# Sets the unit only: about the kernel's median time on the machine the
# benchmark was defined on (2 vCPUs of an Intel Xeon VM, Python 3.11.7,
# numpy 2.4.6), so reference seconds read close to wall seconds there.
REFERENCE_KERNEL_S = 0.006


def kernel() -> float:
    """Wall seconds of a fixed 40-cell Lorenz-96 RK4 run in numpy: the same
    mix of small-array numpy calls and interpreter work as a scenario.

    The garbage collector is held off meanwhile: a collection started here
    would charge the caller's garbage to the machine's speed.
    """
    x = 8.0 + np.sin(np.arange(40.0))
    h = 0.01

    def f(v):
        return (np.roll(v, -1) - np.roll(v, 2)) * np.roll(v, 1) - v + 8.0

    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(KERNEL_STEPS):
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class SpeedMeter:
    """Kernel times taken around one timed region and, when ``sampling``,
    inside it. Timer probes suit work in this process; work a signal
    cannot interrupt, such as a child process, takes ``sampling=False``."""

    def __init__(self, sampling: bool = True) -> None:
        self.sampling = sampling
        self.kernel_s: list[float] = []
        self.probe_starts: list[float] = []
        self.probe_busy = [0.0]  # seconds in timer probes, cumulative

    def _probe(self, signum, frame) -> None:
        start = perf_counter()
        self.kernel_s.append(kernel())
        self.probe_starts.append(start)
        self.probe_busy.append(self.probe_busy[-1] + perf_counter() - start)

    @contextmanager
    def running(self):
        self.kernel_s += [kernel() for _ in range(KERNELS_AROUND)]
        if self.sampling:
            previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                signal.signal(signal.SIGALRM, previous)
            self.kernel_s += [kernel() for _ in range(KERNELS_AROUND)]

    @property
    def scale(self) -> float:
        """Factor from probe-free wall seconds to reference seconds."""
        return REFERENCE_KERNEL_S / statistics.fmean(self.kernel_s)

    def probe_time(self, start: float, end: float) -> float:
        """Seconds of [start, end] spent in timer probes. A probe runs
        between two bytecodes, never inside a ``perf_counter()`` call, so it
        lies wholly inside or wholly outside a region timed with one."""
        first = bisect.bisect_left(self.probe_starts, start)
        last = bisect.bisect_left(self.probe_starts, end)
        return self.probe_busy[last] - self.probe_busy[first]

    def reference(self, start: float, end: float) -> float:
        return (end - start - self.probe_time(start, end)) * self.scale
