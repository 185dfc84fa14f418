"""CPU-speed-adjusted timing for a shared host.

On the shared 2-core Xeon where this benchmark was defined, the speed of a
vCPU changed by up to 2x over minutes while the core's other hardware
thread was busy.  Raw pass times of one workload then spread by 30% across
runs, more than any usable regression bound.  To keep the reported figures
steady, a SIGALRM timer runs a small reference kernel every
``SAMPLE_INTERVAL_S`` while a timed region runs and records how long it took
(``SpeedSampler``).  A measured duration is then scaled by
``NOMINAL_KERNEL_S / mean kernel time`` over that same region: seconds on a
core where the kernel takes its nominal time.  The kernel's own time is
taken out of the measured duration.

The kernel is fixed interpreter-bound work (a Python loop, math calls and
tiny numpy arrays, like dtstab's per-point code) and does not touch dtstab.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

NOMINAL_KERNEL_S = 3.5e-4  # the kernel sampled between workload code, idle core
SAMPLE_INTERVAL_S = 0.02


def kernel():
    acc = 0.0
    for i in range(300):
        x = np.array([i * 0.5, math.sqrt(i), 1.0])
        acc += float(x[0] * x[1]) + abs(x[2])
    return acc


def kernel_seconds():
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class SpeedSampler:
    """Times the kernel every ``SAMPLE_INTERVAL_S`` of a timed region.

    Use as a context manager; ``measure(fn)`` returns
    (result, raw seconds without the kernel's own time, scale) for one call.
    """

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        self.samples.append(kernel_seconds())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn):
        first = len(self.samples)
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        taken = self.samples[first:]
        raw = elapsed - sum(taken)
        if not taken:  # a region shorter than the interval
            taken = [kernel_seconds()]
        return result, raw, NOMINAL_KERNEL_S / statistics.mean(taken)
