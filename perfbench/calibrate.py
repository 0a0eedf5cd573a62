"""The reference loop every host-time metric is divided by.

``calibrate()`` runs a fixed amount of interpreter-bound work shaped like
the engine's own hot paths — ``heapq`` push/pop (the event queue), dict
inserts (storage indexes), tuple and ``str()`` allocation (rows, keys) —
and returns the wall seconds it took.  A timed operation is bracketed by
two calls, and its wall clock is reported in *reference-host seconds*::

    raw_wall * REF_S / mean(calib_before, calib_after)

so a metric reads the same on a host that is uniformly 30 % slower this
minute.

The loop's working set is bounded on purpose (a 64-entry heap, 251 dict
keys, every tuple and string freed by the next iteration): a first version
that let the heap and the dict grow measured the allocator and the kernel's
page-fault path instead of the interpreter, took 45–100 ms from one call to
the next inside one process, and made every calibrated number *noisier*
than its raw wall clock (``perfbench/README.md`` has the figures).

The loop is defined once: a change that claims a gain must not edit this
file, or every earlier number stops being comparable.
"""

from __future__ import annotations

import heapq
import time

#: What ``calibrate()`` takes on the reference host, in seconds: the box the
#: benchmark was sized on (2 shared cores, CPython 3.11), on a quiet minute.
REF_S = 0.060
#: Iterations of the reference loop.
ITERATIONS = 100_000


def calibrate() -> float:
    """Run the reference loop once; return its wall-clock seconds."""
    heap: list = []
    table: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    start = time.perf_counter()
    for i in range(ITERATIONS):
        key = (i * 7919) % 251
        push(heap, (key, i))
        table[key] = (i, str(key))
        if i >= 64:
            pop(heap)
    return time.perf_counter() - start


def speed_factor(calib_before: float, calib_after: float) -> float:
    """Multiplier turning raw wall seconds into reference-host seconds."""
    return REF_S / ((calib_before + calib_after) / 2.0)
