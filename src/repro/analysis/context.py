"""Execution-context markers for the concurrency-effect analyzer.

The parallel engine runs code in three execution contexts with very
different shared-state rules:

* ``"canonical"`` — the merge / fan-in thread that owns the live
  :class:`~repro.globalroute.graph.GlobalGraph` and
  :class:`~repro.detailed.grid.DetailedGrid`.  It may mutate base
  state freely but must consume speculation results in submission
  order (the serial-equivalence contract).
* ``"speculative"`` — thread-pool workers routing against snapshots
  and overlays.  Base state is off limits: reads go through
  ``graph.snapshot()`` / ``grid.speculative_overlay()``, writes stay
  buffered in the overlay until the merge loop applies them.
* ``"worker-process"`` — process-pool workers operating on their own
  fork of the world, fed through
  :class:`~repro.parallel.shared_state.SharedStateChannel`.  Mutating
  the (forked) base copies is sanctioned, but every touched structure
  must be declared so the analyzer can check the declared footprint
  against what the code statically reaches (rule CONC004).

:func:`context` is a decorator that stamps a function with its context
and, optionally, its declared read/write footprint over the
:data:`SHARED_STRUCTURES` vocabulary.  The markers are inert at run
time — they only attach attributes — and are the seeds from which
:mod:`~repro.analysis.concurrency` propagates contexts through the
call graph.

This module is a dependency leaf: the routers import it, so it must
import nothing from :mod:`repro` itself.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, TypeVar

#: The shared-structure vocabulary effect summaries are expressed in.
SHARED_STRUCTURES = frozenset(
    {
        "global.demand",
        "global.history",
        "global.capacity",
        "grid.owner",
        "grid.journal",
        "global.cache",
        "channel",
    }
)

#: The recognized execution-context kinds.
CONTEXT_KINDS = frozenset({"canonical", "speculative", "worker-process"})

_F = TypeVar("_F", bound=Callable[..., object])


def context(
    kind: str,
    *,
    reads: Optional[Sequence[str]] = None,
    writes: Optional[Sequence[str]] = None,
) -> Callable[[_F], _F]:
    """Mark a function's execution context for the static analyzer.

    Args:
        kind: one of :data:`CONTEXT_KINDS`.
        reads: declared read footprint over :data:`SHARED_STRUCTURES`.
            Omitting it (for speculative / worker-process contexts)
            asserts the function touches *no* base shared state, which
            rules CONC001/CONC002 then enforce; declaring it switches
            the function to footprint checking (rule CONC004).
        writes: declared write footprint, same semantics.

    The decorator validates its arguments eagerly (at import time) and
    attaches ``__repro_context__`` / ``__repro_reads__`` /
    ``__repro_writes__`` to the function, changing nothing else.
    """
    if kind not in CONTEXT_KINDS:
        raise ValueError(
            f"unknown context kind {kind!r} "
            f"(expected one of {', '.join(sorted(CONTEXT_KINDS))})"
        )
    for label, names in (("reads", reads), ("writes", writes)):
        if names is None:
            continue
        unknown = sorted(set(names) - SHARED_STRUCTURES)
        if unknown:
            raise ValueError(
                f"unknown shared structure(s) in {label}: "
                f"{', '.join(unknown)} "
                f"(expected among {', '.join(sorted(SHARED_STRUCTURES))})"
            )

    def mark(func: _F) -> _F:
        func.__repro_context__ = kind  # type: ignore[attr-defined]
        func.__repro_reads__ = (  # type: ignore[attr-defined]
            None if reads is None else tuple(reads)
        )
        func.__repro_writes__ = (  # type: ignore[attr-defined]
            None if writes is None else tuple(writes)
        )
        return func

    return mark
