"""Host-speed calibration for the end-to-end times.

The benchmark's hosts are shared, and their speed drifts by 10-20 %
within minutes: the same pass takes 5.4 s in one run and 6.3 s a minute
later, CPU time included. :func:`kernel_seconds` times a fixed
pure-Python kernel that does what the simulator's hot loop does: heap
pushes and pops of ``[time, seq, payload]`` lists, generator sends,
small slotted objects and dict updates. The kernel is part of the
benchmark, not of the program, so no change to the program moves it.
Multiplying a host time by ``REFERENCE_S / kernel time`` expresses it in
seconds of the reference host and cancels most of the drift. The
kernel is short, so :class:`Pacer` can time it between every two units
of work and scale each unit by the host speed around it.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Kernel seconds that define the reference host: a quarter of the 0.26 s
#: median that four times ``STEPS`` took on an unloaded 2-core x86-64
#: Linux VM with CPython 3.11.7. A fixed constant, so results from any
#: host compare.
REFERENCE_S = 0.065

#: Heap pops per kernel run.
STEPS = 90_000


class _Entry:
    __slots__ = ("when", "owner", "value")

    def __init__(self, when, owner):
        self.when = when
        self.owner = owner
        self.value = None


def _worker(ident, counts):
    total = 0
    while True:
        total += yield ident
        counts[ident] = counts.get(ident, 0) + 1


def kernel_seconds(steps: int = STEPS) -> float:
    """Host seconds one run of the calibration kernel takes.

    The cyclic garbage collector is off while it runs: a collection would
    walk the caller's live objects, and a program holding more of them
    would make the kernel slower.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _kernel(steps)
    finally:
        if enabled:
            gc.enable()


def _kernel(steps: int) -> float:
    began = time.perf_counter()
    counts = {}
    workers = [_worker(ident, counts) for ident in range(64)]
    for worker in workers:
        next(worker)
    heap = [[float(ident % 7), ident, ident] for ident in range(64)]
    heapq.heapify(heap)
    seq = len(heap)
    for _ in range(steps):
        now, tag, ident = heapq.heappop(heap)
        workers[ident].send(tag & 7)
        entry = _Entry(now + (tag % 13) * 0.5, ident)
        seq += 1
        heapq.heappush(heap, [entry.when, seq, entry.owner])
    return time.perf_counter() - began


class Pacer:
    """Times the calibration kernel between units of work.

    Make one before the first unit, and call :meth:`speed` after every
    unit for the factor that scales that unit's host times to the
    reference host: ``REFERENCE_S`` over the mean of the kernel times on
    either side of it.
    """

    def __init__(self):
        self.kernel = kernel_seconds()

    def speed(self) -> float:
        after = kernel_seconds()
        factor = 2 * REFERENCE_S / (self.kernel + after)
        self.kernel = after
        return factor
