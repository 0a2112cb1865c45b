"""Machine speed, measured with a fixed kernel between operations.

On a shared machine the same work runs up to twice as slowly from one minute
to the next, so raw times of runs made minutes apart are not comparable.
The benchmark times this kernel before every operation and after the last
one.  It is a fixed piece of work shaped like one oracle RK4 step (build a
drift matrix element by element, a few 8x8 products), about 0.5 ms.  Each
operation's time is multiplied by ``REFERENCE_S`` over the median of the
kernel times just before and after it, so times are reported in seconds at
the speed where the kernel takes :data:`REFERENCE_S`.  The kernel is
benchmark code, so a change to the program cannot move it; raw times are
kept beside the scaled ones in every result.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Kernel time that defines the reference speed (the quiet state of a
#: 2-core Intel Xeon sandbox with Python 3.11 and numpy 2.4).
REFERENCE_S = 5.0e-4

_SIGMA = np.random.default_rng(0).standard_normal((8, 8))


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(50):
        c, s = math.cos(0.1 * i), math.sin(0.1 * i)
        a = np.zeros((8, 8))
        a[0, 1], a[1, 0], a[2, 3], a[3, 2] = 1.0, -1.0, -1.0, 1.0
        a[5, 0] = a[5, 2] = c
        a[7, 0] = a[7, 2] = s
        b = np.zeros(8)
        b[1] = b[3] = 0.3
        b[4], b[6] = c, s
        columns = np.stack([b, b], axis=1)
        m = a @ _SIGMA
        m = m + m.T + columns @ columns.T
        acc += float(m[0, 0])
    return time.perf_counter() - start


def scale_each(latencies: list[float], kernel: list[float]) -> list[float]:
    """Reference-speed latencies; ``kernel[i]`` was timed just before op ``i``.

    ``kernel`` has one more entry than ``latencies``: the run after the last
    operation.  Operation ``i`` is scaled by the median of ``kernel[i-1:i+2]``.
    """
    if len(kernel) != len(latencies) + 1:
        raise ValueError("need one kernel time before each operation and one after the last")
    return [
        raw * REFERENCE_S / statistics.median(kernel[max(0, i - 1) : i + 2])
        for i, raw in enumerate(latencies)
    ]


def scale(samples: list[float]) -> float:
    """Factor that turns raw times into reference-speed times."""
    return REFERENCE_S / statistics.median(samples)
