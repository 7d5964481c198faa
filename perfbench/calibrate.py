"""Host-speed reference for the timing metrics.

The host this benchmark was built on changes speed by 20-30% from one minute
to the next, whatever the data, which is more than a regression bound can
absorb.  Each timed call is therefore paired with a fixed reference kernel
run just before it, and the timing metrics are reported as wall time scaled
to a host on which the kernel takes ``REFERENCE_S``.  The kernel mixes small
dense numpy algebra with interpreter work, as the solver's pivots do; it does
not use the program under test, so a change to the program cannot move it.
Over ten minutes of 1-minute windows, raw call times ranged over ±21% while
the paired ratio ranged over ±6%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# kernel time at the reference speed: about its median on the 2-core host the
# first figures were recorded on, so normalized seconds read close to wall time
REFERENCE_S = 0.007
REPEATS = 3


def kernel_once() -> float:
    rng = np.random.default_rng(0)
    a = rng.uniform(size=(16, 16)) + 16 * np.eye(16)
    v = rng.uniform(size=16)
    t0 = time.perf_counter()
    for _ in range(300):
        w = np.linalg.inv(a) @ v
        a[0, 0] += 1e-12 * float(w[int(np.argmax(np.abs(w)))])
        sum({i: 2 * i for i in range(20)}.values())
    return time.perf_counter() - t0


def kernel_seconds() -> float:
    """Median of a few kernel runs, taken now."""
    return statistics.median(kernel_once() for _ in range(REPEATS))


def scale(wall_s: float, kernel_s: float) -> float:
    """Wall time rescaled to the reference host speed."""
    return wall_s * REFERENCE_S / kernel_s
