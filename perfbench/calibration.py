"""Host-speed calibration for the benchmark's timings.

On a shared virtual machine (2 vCPUs, Intel Xeon) the CPU switches,
often several times a second, between two speeds about 1.5x apart.  Each timing is therefore rescaled to a reference speed: a fixed
pure-Python loop, independent of coexcap, is timed right before and after
each stretch of measured work (at most about ``CHUNK_S`` long), and a
time t becomes ``t * REFERENCE_S / calibration``, with the mean of the two
calibrations around it.  The result is in "reference seconds": what the
work would take on a host that runs the loop in exactly ``REFERENCE_S``.
"""

from __future__ import annotations

import heapq
import math
import time

REFERENCE_S = 0.001
ROUNDS = 1_000
CHUNK_S = 0.02


def calibrate() -> float:
    """Host seconds for the fixed loop: float math, calls, dict and heap operations."""
    clock = time.perf_counter
    start = clock()
    heap, table, x = [], {}, 0.0
    for i in range(ROUNDS):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        table[i & 1023] = x
        x = math.sqrt(x * x + i) * 0.5 + table.get((i * 31) & 1023, 0.0) * 1e-3
        if len(heap) > 64:
            heapq.heappop(heap)
    elapsed = clock() - start
    if not math.isfinite(x):   # keeps the loop's result live
        raise ArithmeticError("calibration loop diverged")
    return elapsed
