"""Picklable wire form of a detailed-routing speculative overlay.

The thread-pool path hands :class:`~repro.detailed.overlay.GridOverlay`
objects straight to the merge loop; a process-pool worker cannot — an
overlay borrows the whole live grid by reference.  :class:`OverlayDelta`
is what crosses the process boundary instead: the buffered ownership
operations in insertion order, the exact read/write footprints the
merge loop validates against, and the overlay's cost-evaluation count.

``apply_to`` replays operations exactly like ``GridOverlay.apply_to``
(``None`` releases, anything else force-occupies, cost evaluations
accumulate last), so the detailed router's merge loop treats overlays
and deltas interchangeably — which is precisely what makes the process
backend byte-identical to the thread backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..analysis.context import context
from .grid import DetailedGrid, Node
from .overlay import GridOverlay, _OwnerOverlay


@dataclass
class OverlayDelta:
    """Replayable ownership delta extracted from a grid overlay.

    Attributes:
        ops: buffered ownership assignments in overlay insertion
            order; ``None`` marks a release (the overlay's tombstone).
        read_nodes: base-ownership nodes the speculation read.
        write_nodes: declared write footprint.
        cost_evaluations: stitch-cost evaluations the overlay counted.
    """

    ops: list[tuple[Node, Optional[str]]]
    read_nodes: set[Node]
    write_nodes: set[Node]
    cost_evaluations: int

    @classmethod
    @context("worker-process")
    def from_overlay(cls, overlay: GridOverlay) -> "OverlayDelta":
        """Extract the wire form from a (possibly sanitized) overlay."""
        tombstone = _OwnerOverlay.TOMBSTONE
        ops: list[tuple[Node, Optional[str]]] = [
            (node, None if value is tombstone else value)
            for node, value in overlay._owner.local.items()
        ]
        return cls(
            ops=ops,
            read_nodes=set(overlay.read_nodes),
            write_nodes=set(overlay.write_nodes),
            cost_evaluations=overlay.cost_evaluations,
        )

    @context("canonical", reads=("grid.owner",), writes=("grid.owner",))
    def apply_to(self, base: DetailedGrid, net: str) -> None:
        """Replay onto the live grid, mirroring ``GridOverlay.apply_to``.

        A release op frees the node whatever base currently says: the
        speculation may have force-claimed it from a foreign net before
        trimming it away, in which case the serial run leaves it free
        while base still shows the evicted owner.
        """
        for node, value in self.ops:
            if value is None:
                current = base.owner(node)
                if current is not None:
                    base.release(node, current)
            else:
                base.force_occupy(node, value)
        base.cost_evaluations += self.cost_evaluations

    # ------------------------------------------------------------------
    # Canonical payload form (property tests round-trip through this)
    # ------------------------------------------------------------------
    def to_payload(self) -> tuple[Any, ...]:
        """Canonical tuple form: ops in order, footprints sorted."""
        return (
            tuple(self.ops),
            tuple(sorted(self.read_nodes)),
            tuple(sorted(self.write_nodes)),
            self.cost_evaluations,
        )

    @classmethod
    def from_payload(cls, payload: tuple[Any, ...]) -> "OverlayDelta":
        ops, reads, writes, cost_evaluations = payload
        return cls(
            ops=[(node, value) for node, value in ops],
            read_nodes=set(reads),
            write_nodes=set(writes),
            cost_evaluations=cost_evaluations,
        )
