"""Host-speed probe: a fixed kernel run inside each timed routing call.

The benchmark runs on a few cores of a shared host.  How fast a core runs
changes from one second to the next as other tenants load it: the same
routing call, repeated, takes from 0.66 s to 1.16 s.  The probe measures
that speed while the call runs.  Every :data:`INTERVAL_S` a timer signal
interrupts the call, runs :func:`kernel` (a fixed pure-Python heap and
dict loop, about a millisecond, that uses none of the routing package)
and records how long it took.  A call's probe time is subtracted from its
wall time, and the rest is scaled by ``REFERENCE_S / mean(samples)``:
the call's length on a reference host where one kernel takes exactly
:data:`REFERENCE_S`.  A change to the router moves the call's wall time
and leaves the kernel alone, so it moves the scaled time by the same
share; a slow stretch of the host slows both and mostly cancels.

The same timer enforces the per-call time limit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import heapq
import signal
import statistics
import time
from collections.abc import Iterator
from typing import Any

#: Seconds between probes inside a call.
INTERVAL_S = 0.05
#: Loop iterations of one probe (about 1 ms on a 2-vCPU Xeon VM).
ITERATIONS = 1500
#: Probe length that defines the reference host.
REFERENCE_S = 0.001


class CallTimeout(Exception):
    """A routing call exceeded its time limit."""


def kernel(iterations: int = ITERATIONS) -> int:
    """Fixed interpreter work: dict updates and a bounded heap."""
    heap: list[tuple[int, int]] = []
    counts: dict[int, int] = {}
    for i in range(iterations):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + i
        heapq.heappush(heap, (key, i))
        if len(heap) > 32:
            heapq.heappop(heap)
    return len(counts)


@dataclasses.dataclass
class CallTiming:
    """Probe samples taken during one call (empty when probing is off)."""

    samples: list[float] = dataclasses.field(default_factory=list)

    def scaled(self, wall: float) -> float:
        """``wall`` without probe time, at the reference host's speed."""
        if not self.samples:
            return wall
        return (wall - sum(self.samples)) * REFERENCE_S / statistics.mean(self.samples)


@contextlib.contextmanager
def timed_call(limit_s: float, probe: bool) -> Iterator[CallTiming]:
    """Run the body under a time limit, probing host speed when ``probe``."""
    timing = CallTiming()
    deadline = time.perf_counter() + limit_s

    def on_timer(_signum: int, _frame: Any) -> None:
        if not probe or time.perf_counter() >= deadline:
            raise CallTimeout(f"routing call exceeded {limit_s:.0f} s")
        start = time.perf_counter()
        kernel()
        timing.samples.append(time.perf_counter() - start)

    interval = INTERVAL_S if probe else limit_s
    previous = signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, interval, interval)
    try:
        yield timing
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
