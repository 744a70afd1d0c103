"""Op clock: CPU time, scaled by an interleaved calibration kernel.

On a shared virtual machine the CPU time of fixed work is not fixed: the
same loop of stdlib ``Fraction`` arithmetic took from 11 to 27 ms of CPU
time within one minute on a 2-vCPU virtual machine, as neighbours came and
went on the host.  So the benchmark runs a fixed calibration kernel between
ops, at least every ``CALIBRATE_EVERY_S`` of wall time, and scales each op's
CPU time by the kernel's CPU time around it.  A scaled time reads as CPU
seconds on a machine where one kernel call takes ``REFERENCE_KERNEL_S``.
The kernel is code of the benchmark, not of bcf, so a change to bcf moves
the ops and not the yardstick.
"""

from __future__ import annotations

import bisect
import resource
import time
from fractions import Fraction

REFERENCE_KERNEL_S = 0.001
CALIBRATE_EVERY_S = 0.02
MAX_SAMPLES_AT_ONCE = 5  # after a long op, a few samples make up the gap
WINDOW_S = 0.1  # an op is scaled by the samples this close to it


def cpu_seconds():
    """CPU time of this process, all its threads, and its waited-for
    children: work an op hands to a pool or a child process stays counted."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def kernel():
    """Fixed work of the kind bcf does: rational arithmetic on growing
    integers, about a millisecond on an idle core."""
    x, acc = Fraction(355, 113), Fraction(0)
    for k in range(1, 120):
        acc += Fraction(k, k * k + 1) * x
    return acc


def kernel_seconds():
    """CPU seconds of one kernel call."""
    start = cpu_seconds()
    kernel()
    return cpu_seconds() - start


class Calibration:
    """Kernel samples taken between ops, and the ops they scale."""

    def __init__(self):
        self.times = []  # wall time of each sample
        self.samples = []  # CPU seconds of each sample
        self._last = None

    def tick(self):
        """Take the samples that are due; call it between ops."""
        now = time.perf_counter()
        due = 1 if self._last is None else int(
            (now - self._last) / CALIBRATE_EVERY_S)
        if due:
            for _ in range(min(due, MAX_SAMPLES_AT_ONCE)):
                self.samples.append(kernel_seconds())
                self.times.append(time.perf_counter())
            self._last = time.perf_counter()

    def speed(self, start, end):
        """Mean kernel CPU time near the wall-clock span [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:  # nothing that close: take the nearest sample
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        window = self.samples[lo:hi]
        return sum(window) / len(window)

    def scale(self, cpu_s, start, end):
        """An op's CPU seconds at the reference kernel speed."""
        return cpu_s * REFERENCE_KERNEL_S / self.speed(start, end)
