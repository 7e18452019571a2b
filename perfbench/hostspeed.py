"""Host-speed calibration for the timed phases and set-up.

The benchmark runs on a few virtual CPUs of a shared host, and other
tenants change how fast the same code runs: on a 2-vCPU Intel Xeon VM one
pass over the `large` inputs took from 2.7 s to 4.8 s within four minutes,
in stretches lasting from a fraction of a second to over a minute. CPU time
equalled wall time throughout, so this is contention for the core and its
caches, not lost time slices, and a whole run can fall inside a slow
stretch; no statistic over raw latencies recovers the speed of a quiet one.

So a fixed kernel that does not use the program is timed every
CAL_EVERY_NS: a small int64 matrix product, like the dense motif census,
and a float64 nearest-neighbour scan, like embedding inference and the KNN
vote. Each latency is scaled by REFERENCE_NS over the kernel's time around
it and reads as the latency on a host where the kernel takes REFERENCE_NS.
Scaled figures are what the result line reports; the unscaled ones are
printed beside them.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

CAL_EVERY_NS = 20_000_000
# Kernel time on a quiet 2-vCPU Intel Xeon VM (python 3.11, numpy 2.4).
REFERENCE_NS = 300_000


class Calibrator:
    """Times the calibration kernel; `samples` holds one time per call."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.adjacency = (rng.random((64, 64)) < 0.1).astype(np.int64)
        self.points = rng.random((2000, 32))
        self.query = rng.random(32)
        self.samples: list[int] = []

    def kernel(self) -> None:
        self.adjacency @ self.adjacency
        np.sqrt(((self.points - self.query) ** 2).sum(axis=1)).argsort()

    def sample(self) -> int:
        """Faster of two kernel runs, so that one interrupt does not count
        as a slow host; returns the index of the new sample."""
        best = None
        for _ in range(2):
            t0 = time.perf_counter_ns()
            self.kernel()
            ns = time.perf_counter_ns() - t0
            best = ns if best is None else min(best, ns)
        self.samples.append(best)
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Factor for an operation run between samples `index` and `index + 1`."""
        after = self.samples[min(index + 1, len(self.samples) - 1)]
        return REFERENCE_NS / ((self.samples[index] + after) / 2)


@contextmanager
def sampled(calibrator: Calibrator):
    """Calibrate every CAL_EVERY_NS from a timer signal while the body runs,
    for work such as set-up that is one long call into the program. Yields a
    list of (start, end, sample index) per calibration, bracketed by one
    taken on entry and one on exit."""
    marks: list[tuple[int, int, int]] = []

    def mark(*_):
        t0 = time.perf_counter_ns()
        index = calibrator.sample()
        marks.append((t0, time.perf_counter_ns(), index))

    previous = signal.signal(signal.SIGALRM, mark)
    mark()
    signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_NS / 1e9, CAL_EVERY_NS / 1e9)
    try:
        yield marks
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        mark()


def scaled_seconds(calibrator: Calibrator, marks: list[tuple[int, int, int]]) -> float:
    """Time between the first and last mark, less the calibrations, scaled
    stretch by stretch to the reference host speed."""
    total = 0.0
    for (_, end, index), (start, _, _) in zip(marks, marks[1:]):
        total += (start - end) * calibrator.scale(index)
    return total / 1e9

