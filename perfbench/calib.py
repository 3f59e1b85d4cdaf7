"""Machine-speed calibration for timings on a shared host.

On a small shared VM the host runs this process at a speed that drifts,
by up to ~2x for whole runs and in bursts of a few seconds, with nothing
visible inside the guest (no steal time).  Raw wall-clock medians of the
same work on the same seed then spread by more than any useful bound.

So each run also times a fixed pure-Python kernel between operations
(never inside one): after every ~0.2 s of a loop of short operations,
and in groups around set-ups, builds and recoveries.  Each reported
timing is its wall-clock time times ``REFERENCE_S / median`` of the
kernel samples taken nearest to it.  In ten 5-second ``live_tip`` loops
whose raw median round time ranged 9.7-15.8 ms, the ratio of round time
to kernel time stayed within 1.23-1.46 (the kernel samples taken right
after operations tracked the host far better than samples taken in a
quiet moment or a kernel that allocates nothing).

The kernel runs with the collector parked, so it never pays for a
collection of the program's heap.  It runs straight after operations,
in the cache and allocator state they leave, because that is what makes
it track a memory-bound host slowdown: a kernel timed after an untimed
warm-up run tracked ``live_tip`` as well but ``cold_build`` worse
(scaled build medians spread 0.15 across nine seeds, against 0.06).
That state does not let a slowdown of the program slow the kernel and
so hide part of itself: with a CPU-bound and an allocation-heavy
slowdown injected into ``add_block`` (``calcheck.py``), the kernel right
after a slowed ``live_tip`` round took 1.004x and 0.990x as long as
after a plain one, and the scaled round p50 moved x1.198 and x1.580
where the raw one moved x1.189 and x1.590.
The raw wall-clock figures and the run's overall factor are printed
beside the scaled ones.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import random
from statistics import median
from time import perf_counter

REFERENCE_S = 0.0065
"""Kernel time at the reference speed: its median in the fastest state
seen on a 2-vCPU VM with CPython 3.11.7, where a ``live_tip`` round took
~8.4 ms.  The constant only sets the scale of reported timings."""

TICK_S = 0.2
"""Least wall time between two samples taken by :meth:`Calibration.tick`."""

LOCAL_SAMPLES = 7
"""Kernel samples nearest in time to an operation that set its factor."""


def kernel() -> int:
    """The fixed unit of work: allocate, format, sort and hash."""
    rng = random.Random(5)
    table = {}
    for i in range(6000):
        key = rng.randrange(1 << 30)
        table[key] = (i, str(key))
    items = sorted(table.items())
    digest = hashlib.sha256()
    for _key, (_i, text) in items[:2000]:
        digest.update(text.encode())
    return len(items)


class Calibration:
    """Kernel timings taken through one run, with when each was taken."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        """``(start, end)`` of each kernel run, in time order."""
        self._last = perf_counter()

    def sample(self, times: int = 1) -> None:
        # The collector is parked so the kernel never pays for a
        # collection of the program's heap; its own objects die by
        # reference count, leaving the collector's counts as they were.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                start = perf_counter()
                kernel()
                self._last = perf_counter()
                self.samples.append((start, self._last))
        finally:
            if enabled:
                gc.enable()

    def tick(self) -> None:
        """One sample, if the last one is at least ``TICK_S`` old."""
        if perf_counter() - self._last >= TICK_S:
            self.sample()

    def factor(self) -> float:
        """``REFERENCE_S`` over the run's median kernel time: the run's
        overall speed, printed beside the scaled figures."""
        return REFERENCE_S / median(end - start for start, end in self.samples)

    def scaled(self, begin: float, end: float) -> float:
        """``end - begin`` at the reference speed.

        Kernel runs inside the interval (a loop that ticks) are taken out
        of its duration.  The factor comes from those inside runs when
        there are ``LOCAL_SAMPLES`` of them, else from the runs nearest
        in time, so a burst of host load that slows one stretch of a run
        is taken out of that stretch only."""
        inside = self._inside(begin, end)
        if len(inside) < LOCAL_SAMPLES:

            def distance(sample):
                a, b = sample
                if b < begin:
                    return begin - b
                return a - end if a > end else 0.0

            near = heapq.nsmallest(LOCAL_SAMPLES, self.samples, key=distance)
        else:
            near = inside
        return self.busy(begin, end) * REFERENCE_S / median(
            b - a for a, b in near
        )

    def busy(self, begin: float, end: float) -> float:
        """``end - begin`` without the kernel runs inside it."""
        return end - begin - sum(b - a for a, b in self._inside(begin, end))

    def _inside(self, begin: float, end: float) -> list[tuple[float, float]]:
        return [(a, b) for a, b in self.samples if begin <= a and b <= end]
