"""Worker-pool execution of net batches.

A thin, deterministic wrapper around :class:`concurrent.futures`.
Results always come back in submission order — thread scheduling can
never reorder them — and per-task busy times are accumulated so the
routing stages can report worker utilization
(:meth:`BatchExecutor.utilization`).

The pool is thread-based: workers only *read* shared routing state
(their writes go to per-net overlays, see :mod:`repro.parallel.overlay`),
which process pools would have to pickle wholesale.  Pure-Python code
contends on the GIL, so the wall-clock win grows with the share of
time spent in compiled code that releases it (the detailed A* kernel,
numpy) and shrinks toward parity on interpreter-bound workloads —
``docs/parallelism.md`` discusses when to raise ``workers``.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Callable, Sequence
from typing import Optional, TypeVar

from ..analysis.context import context
from ..analysis.pairing import paired

T = TypeVar("T")
R = TypeVar("R")


def validate_workers(workers: int) -> None:
    """Reject pool widths below 2 with the shared diagnostic.

    Both batch executors (:class:`BatchExecutor` and
    :class:`~repro.parallel.process.ProcessBatchExecutor`) raise the
    same :class:`ValueError` message: ``workers=1`` callers must keep
    the serial code path and never build a pool.
    """
    if workers < 2:
        raise ValueError(f"batch executor needs workers >= 2, got {workers}")


class BatchExecutor:
    """Orders-preserving thread-pool runner with utilization accounting.

    Args:
        workers: pool size; must be at least 2 (``workers=1`` callers
            must keep the serial code path and never build a pool).
        on_task: optional per-task completion hook, called as
            ``on_task(task_index, busy_seconds)`` *on the calling
            thread* after each pooled batch resolves, in submission
            order — the canonical fan-in point for live-progress
            consumers (:meth:`~repro.observe.Tracer.progress`), which
            must never be reached from worker threads.  ``task_index``
            is the global dispatch index (continues across batches).
            Inline single-item batches bypass the hook, exactly as they
            bypass the pool's task accounting.
    """

    #: Backend discriminator (``"process"`` on the multiprocessing twin).
    kind = "thread"

    def __init__(
        self,
        workers: int,
        on_task: Optional[Callable[[int, float], None]] = None,
    ) -> None:
        validate_workers(workers)
        self.workers = workers
        self.on_task = on_task
        self._pool: Optional[ThreadPoolExecutor] = None
        #: Tasks dispatched through the pool (width-1 batches bypass it).
        self.tasks = 0
        #: Batches dispatched through the pool.
        self.batches = 0
        #: Summed per-task wall time (the "busy" numerator).
        self.busy_seconds = 0.0
        #: Summed ``workers * batch_wall`` (the capacity denominator).
        self.capacity_seconds = 0.0

    # ------------------------------------------------------------------
    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Tear down the pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------
    @context("canonical")
    @paired("batch-executor", backend="thread")
    def run(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item concurrently; results in item order.

        A single-item batch runs inline on the calling thread — the
        pool only pays off when there is actual width.  Worker
        exceptions propagate to the caller (the same crash the serial
        loop would have raised).
        """
        if len(items) == 1:
            return [fn(items[0])]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-route",
            )
        timed_results: list[tuple[R, float]] = []

        def timed(item: T) -> tuple[R, float]:
            start = time.perf_counter()
            result = fn(item)
            return result, time.perf_counter() - start

        batch_start = time.perf_counter()
        futures = [self._pool.submit(timed, item) for item in items]
        try:
            timed_results = [f.result() for f in futures]
        finally:
            for f in futures:
                f.cancel()
        batch_wall = time.perf_counter() - batch_start
        base_index = self.tasks
        self.batches += 1
        self.tasks += len(items)
        self.busy_seconds += sum(busy for _, busy in timed_results)
        self.capacity_seconds += self.workers * batch_wall
        if self.on_task is not None:
            for offset, (_, busy) in enumerate(timed_results):
                self.on_task(base_index + offset, busy)
        return [result for result, _ in timed_results]

    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Fraction of pool capacity spent inside tasks (0.0-1.0).

        ``busy / (workers * wall)`` summed over the pooled batches; 1.0
        means every worker was busy for every pooled batch.  GIL
        contention shows up here as apparently high utilization with no
        wall-clock win — pair this with the stage wall times.
        """
        if self.capacity_seconds <= 0.0:
            return 0.0
        return min(1.0, self.busy_seconds / self.capacity_seconds)
