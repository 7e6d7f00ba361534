"""Machine-speed reference for normalising timings.

On a small shared machine the speed of one CPU drifts by up to 1.6x, over
seconds to minutes, as neighbours load it.  The benchmark therefore runs
a fixed reference kernel between jobs, on the same CPU, and scales each
job's wall time by REF_S / (the kernel's time around that job).  A
reported second is then a second on a machine where the kernel takes
REF_S.  The kernel is plain Python and numpy and calls no redhom code, so
a change to redhom does not move it.  Raw times stay in the run record.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REF_S = 0.008   # about the kernel's median time on a 2-core shared Xeon VM
GAP_S = 0.1     # at most one kernel sample per this much wall time
NEAR_S = 0.5    # samples this close to a job describe its speed


def kernel_s() -> float:
    """Time one run of the fixed kernel: row reduction mod 3 with numpy
    row operations driven from Python, then a pure-Python loop, the two
    kinds of work redhom's jobs are made of."""
    start = time.perf_counter()
    a = np.random.default_rng(12345).integers(0, 3, (64, 128)).astype(np.int64)
    row = 0
    for col in range(64):
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            a[[row, pr]] = a[[pr, row]]
        if a[row, col] != 1:
            a[row] = (a[row] * 2) % 3
        fac = a[:, col].copy()
        fac[row] = 0
        nzm = np.nonzero(fac)[0]
        if nzm.size:
            a[nzm] = (a[nzm] - np.outer(fac[nzm], a[row])) % 3
        row += 1
    acc = 0
    for i in range(30000):
        acc += (i * i) % 7
    return time.perf_counter() - start


class SpeedLog:
    """Kernel samples taken between jobs, with their times."""

    def __init__(self):
        self.at: list[float] = []
        self.secs: list[float] = []

    def sample(self) -> None:
        self.at.append(time.perf_counter())
        self.secs.append(kernel_s())

    def sample_if_due(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= GAP_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REF_S over the median kernel time near [start, end]: the
        samples within NEAR_S of it, and always the last one before it
        and the first one after it."""
        lo = bisect.bisect_left(self.at, start - NEAR_S)
        hi = bisect.bisect_right(self.at, end + NEAR_S)
        before = bisect.bisect_right(self.at, start) - 1
        after = bisect.bisect_left(self.at, end)
        idx = set(range(lo, hi))
        idx.update(i for i in (before, after) if 0 <= i < len(self.at))
        return REF_S / statistics.median(self.secs[i] for i in idx)
