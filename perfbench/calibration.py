"""Machine-speed calibration for timings on a shared host.

On a host whose cores are shared with other tenants, the same command can
take twice as long from one minute to the next, and CPU time rises with
wall time (the slowdown is contention inside the core, not steal).  Each
child therefore times a fixed pure-Python loop, built from the same kind
of work as the program (``Fraction`` products and sums over small
polynomials), right before and right after the timed interval.  A timing
is reported scaled by ``REFERENCE_S / calibration``: seconds at the speed
the host has when uncontended.  The loop is part of the benchmark, so no
change to the program can alter it.
"""

from __future__ import annotations

import time
from fractions import Fraction

ROUNDS = 8
# About the time of ROUNDS loops on an uncontended 2-vCPU host (Python
# 3.11); it only sets the scale of the reported seconds.
REFERENCE_S = 0.11


def _loop() -> int:
    polys = [tuple(Fraction(7 * i + j + 1, j + 2) for j in range(5)) for i in range(12)]
    digits = 0
    for a in polys:
        for b in polys:
            out = [Fraction(0)] * 9
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            digits += len(str(out[4]))
    return digits


def calibrate() -> float:
    """Seconds this process takes for the fixed loop, now."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        _loop()
    return time.perf_counter() - start


def speed_factor(calibration_s: float) -> float:
    """Multiplier that turns seconds measured now into reference seconds."""
    return REFERENCE_S / calibration_s
