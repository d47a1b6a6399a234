"""Machine-speed reference, for timing on a shared machine whose speed drifts.

On the 2-core machine this benchmark was written on, the speed of CPU-bound
Python code drifts by up to +-25% within seconds, as other tenants load the
shared cores; process CPU time drifts as much as wall time.  Three-second
medians of one fixed dscat computation ranged from 0.74 to 1.16 of their
overall median.  A fixed pure-Python kernel timed right before and right after
each measured interval tracks that drift: divided by it, the same medians
stayed within 0.96 to 1.04.  So the op times the benchmark reports are wall
times scaled to the kernel's nominal speed; set-up time has a reference of its
own (see run.py).  The kernel shares no code with dscat, so no change to dscat
can move it.
"""

from __future__ import annotations

import statistics
import time

# Median time of one kernel run on that machine when it was quiet.
NOMINAL_S = 0.0038
_RUNS = 3


def _kernel(steps: int = 300) -> tuple:
    """Fixed-step RK4 of a 5-component complex linear system, in plain Python."""
    c, h = -1.5 + 0j, 0.01

    def field(y):
        f11, f12, f21, f22, w = y
        iw = 1.0 / w
        return (c * (f11 - w * f21), c * (f12 - w * f22), c * (f11 * iw - f21),
                c * (f12 * iw - f22), 0.01 * w)

    y = (1 + 0j, 0j, 0j, 1 + 0j, 1 + 0j)
    for _ in range(steps):
        k1 = field(y)
        k2 = field(tuple(y[i] + 0.5 * h * k1[i] for i in range(5)))
        k3 = field(tuple(y[i] + 0.5 * h * k2[i] for i in range(5)))
        k4 = field(tuple(y[i] + h * k3[i] for i in range(5)))
        y = tuple(y[i] + (h / 6) * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) for i in range(5))
    return y


def sample() -> float:
    """Current kernel time: the median of a few runs."""
    times = []
    for _ in range(_RUNS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(wall: float, before: float, after: float) -> float:
    """Wall seconds at nominal speed, from kernel samples taken around them."""
    return wall * NOMINAL_S / ((before + after) / 2)
