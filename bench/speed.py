"""Machine-speed calibration for timings taken on a shared host.

On a 2-vCPU Intel Xeon VM shared with other tenants, the speed of
pure-Python code changed by up to a factor of 2 from one tenth of a
second to the next, and identical ops differed by as much in wall time.
A fixed kernel timed right before and right after an op tracks the
op's own slowdown closely (correlation above 0.8 on identical ops).  So
the benchmark brackets every op with the kernel below, which does not
touch hnbundles, and scales the op's wall time by

    CAL_REF_NS / (mean of the two kernel times).

The result is a time in *reference* units: what the op would take on a
machine where the kernel takes exactly CAL_REF_NS, about that VM's
speed when uncontended.  Program changes move the op time and leave the
kernel alone; a host that slows everything down moves both and cancels
out.  README.md records how much of an injected slowdown shows.
"""

import gc
import time
from fractions import Fraction

CAL_REF_NS = 250_000


def kernel():
    """Fixed pure-Python work of the kind hnbundles does: Fractions,
    small tuples, dict lookups and calls."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 100):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
        key = tuple(sorted((i * 7919 % 13, i % 5, -i % 3)))
        seen[key] = seen.get(key, 0) + 1
    return acc, len(seen)


def kernel_ns():
    """Time one kernel run with the cyclic collector off, so that the
    kernel never pays for collecting the garbage of the op before it;
    that collection falls in the op's own check or in a later op."""
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        kernel()
        return time.perf_counter_ns() - t0
    finally:
        gc.enable()
