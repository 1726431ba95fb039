"""Speculative-routing overlay for the global routing graph.

A worker thread in the parallel net-batch router (see
:mod:`repro.parallel`) must route its net against the exact demand
state the serial router would have shown it, without mutating arrays
its batch-mates are reading.  :class:`GraphSnapshot` gives each worker
private demand arrays; the router's A* windows act as the worker's
declared read region, validated at merge time with
:func:`windows_hit`.
"""

from __future__ import annotations

from collections.abc import Iterable

from .graph import GlobalGraph

Tile = tuple[int, int]
Rect = tuple[int, int, int, int]


class GraphSnapshot(GlobalGraph):
    """A :class:`GlobalGraph` view with private demand arrays.

    Capacity and history arrays are shared read-only references (they
    only change between batches: capacities never, history in the
    serial ``_bump_history`` step); the demand arrays are copies, so a
    worker's placements — including the interaction between one net's
    own subnets — stay invisible to its batch-mates.

    The cost caches are cloned rather than rebuilt — the live graph
    keeps its entries fresh through the demand mutators, making them
    exactly the per-batch state a rebuild would produce, at list-copy
    cost.  Reads are *not* intercepted (cache indexing is the hot
    path); instead the router records every A* window it searched,
    which bounds all demand and cache reads, as the snapshot's read
    footprint.
    """

    def __init__(self, base: GlobalGraph) -> None:
        # Deliberately skips GlobalGraph.__init__: geometry and
        # capacities are borrowed from ``base``, not recomputed.
        self.design = base.design
        self.tile_size = base.tile_size
        self.nx = base.nx
        self.ny = base.ny
        self.h_capacity = base.h_capacity
        self.v_capacity = base.v_capacity
        self.vertex_capacity = base.vertex_capacity
        self.h_history = base.h_history
        self.v_history = base.v_history
        self.vertex_history = base.vertex_history
        self.h_demand = base.h_demand.copy()
        self.v_demand = base.v_demand.copy()
        self.vertex_demand = base.vertex_demand.copy()
        self._h_cost = [row[:] for row in base._h_cost]
        self._v_cost = [row[:] for row in base._v_cost]
        self._v_price = [row[:] for row in base._v_price]


def windows_hit(windows: Iterable[Rect], tiles: set[Tile]) -> bool:
    """Whether any tile lies inside any (inclusive) window rect.

    The merge loop's conflict test: ``windows`` is a speculative net's
    read footprint, ``tiles`` the tiles earlier batch-mates have
    already written to the live graph.
    """
    return any(
        lo_x <= i <= hi_x and lo_y <= j <= hi_y
        for lo_x, lo_y, hi_x, hi_y in windows
        for i, j in tiles
    )
