"""Host-speed calibration: timings in reference milliseconds.

The benchmark shares a few cores of a host with other tenants, and their
load moves the speed of the whole process by a quarter or more within tens
of seconds (NOTES.md).  So every run times a fixed calibration kernel
(interpreter work, small numpy matrix products and a memory pass) between
its operations, at most every ``INTERVAL_S`` seconds, and scales each timed
sample by ``KERNEL_REFERENCE_S / median(kernel time)`` over the kernel runs
within ``PAD_S`` of it: the end-to-end timings read as on a host where the
kernel takes its reference time.  The kernel runs outside every timed
interval and is benchmark code, so the program under test cannot change it;
the raw wall-clock metrics are kept in the record.

:func:`clock` is the benchmark's interval clock: it stands still while the
kernel runs, so set-up and pass times never include calibration.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: About the median kernel time on the reference host (a 2-vCPU VM, Python
#: 3.11, numpy 2.4): the unit the scaled timings are expressed in.
KERNEL_REFERENCE_S = 0.0120
#: Least wall time between two kernel runs.
INTERVAL_S = 0.25
#: Kernel runs this close to a timed sample, in seconds, set its scale ...
PAD_S = 1.0
#: ... or, if fewer, this many nearest kernel runs.
MIN_NEAR = 3

_MATRIX = np.random.default_rng(0).random((96, 96))
_VECTOR = np.random.default_rng(1).random(500_000)


def kernel() -> float:
    """Run the calibration kernel once; return its duration in seconds.

    Interpreter work, small matrix products and a pass over 4 MB of memory,
    as the engine's time splits between Python, numpy/HiGHS arithmetic and
    copying table columns.
    """
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i
    matrix = _MATRIX
    for _ in range(8):
        matrix = matrix @ _MATRIX
        matrix /= matrix.max()
    for _ in range(3):
        copy = _VECTOR * 1.0001
        copy.sum()
    return time.perf_counter() - start


class HostSpeed:
    """Kernel samples of one run and the time spent taking them."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget every sample; the kernel runs once untimed to warm up."""
        self.samples: list[float] = []
        self.times: list[float] = []
        self.spent_s = 0.0
        self._last = float("-inf")
        kernel()

    def tick(self, force: bool = False) -> None:
        """Sample the kernel if ``force`` or if ``INTERVAL_S`` has passed
        since the last sample."""
        now = time.perf_counter()
        if not force and now - self._last < INTERVAL_S:
            return
        self.times.append(self.clock())
        self.samples.append(kernel())
        self.spent_s += time.perf_counter() - now
        self._last = time.perf_counter()

    def clock(self) -> float:
        """Seconds on a clock that stands still while the kernel runs."""
        return time.perf_counter() - self.spent_s

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Multiply a wall time by this to get reference time: over the
        kernel runs near the interval ``[start, end]`` of :meth:`clock`, or
        over the whole run."""
        if not self.samples:
            self.tick()
        if start is None or end is None:
            return KERNEL_REFERENCE_S / statistics.median(self.samples)
        distance = [max(start - t, t - end, 0.0) for t in self.times]
        near = [d for d, t in zip(self.samples, distance) if t <= PAD_S]
        if len(near) < MIN_NEAR:
            nearest = sorted(range(len(distance)), key=distance.__getitem__)[:MIN_NEAR]
            near = [self.samples[i] for i in nearest]
        return KERNEL_REFERENCE_S / statistics.median(near)


#: The process's calibration state; :func:`run.run_workload` resets it.
HOST = HostSpeed()
clock = HOST.clock
tick = HOST.tick
