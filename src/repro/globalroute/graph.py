"""The global routing graph with MEBL resource estimation.

A routing plane is divided into global tiles; each tile is a vertex and
adjacent tiles are connected by edges (Fig. 7a).  MEBL changes the
resource model in two ways (Section III-A):

* **edge capacity** in the vertical direction shrinks because the
  vertical track occupied by a stitching line is unusable (vertical
  routing constraint, Fig. 7b);
* each tile also carries a **vertex capacity** — the number of vertical
  tracks *not* in stitch unfriendly regions — limiting how many
  vertical-segment line ends may lie in the tile without risking short
  polygons.

Demands are tracked per edge (wires crossing the boundary) and per
vertex (line ends lying in the tile).

The maze search never re-derives a step price.  The graph keeps three
cost caches, one entry per resource:

* ``_h_cost[i][j]`` / ``_v_cost[i][j]`` — the full A* edge step
  (``WL_WEIGHT`` + Eq. (1) next-use congestion + history);
* ``_v_price[i][j]`` — the full line-end step price (Eq. (2) next-use
  cost scaled by ``VERTEX_WEIGHT``, plus history and the hard overflow
  penalty).

They are built once per stage, updated entry-wise by the demand
mutators, rebuilt wholesale after the serial history bump, and cloned
per speculative snapshot.  Every entry is produced by the scalar
kernels of :mod:`~repro.globalroute.cost` — not the vectorized
:func:`~repro.globalroute.cost.congestion_cost_array`, whose
``numpy.exp2`` may differ from CPython ``2.0 ** x`` in the last ulp.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections.abc import Iterator
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..layout import Design
from .cost import WL_WEIGHT, edge_cost_if_used, vertex_price

if TYPE_CHECKING:
    from .overlay import GraphSnapshot


Tile = tuple[int, int]

_INF = float("inf")


@dataclasses.dataclass(frozen=True)
class TileSpan:
    """Grid extent of one tile: x columns [x_lo, x_hi], y rows [y_lo, y_hi]."""

    x_lo: int
    x_hi: int
    y_lo: int
    y_hi: int


class GlobalGraph:
    """Tile graph with edge and vertex capacities/demands.

    Edge arrays are indexed as:

    * ``h_*[i, j]`` — the edge between tiles ``(i, j)`` and ``(i+1, j)``
      (a wire crossing it runs horizontally);
    * ``v_*[i, j]`` — the edge between tiles ``(i, j)`` and ``(i, j+1)``
      (a wire crossing it runs vertically).
    """

    def __init__(self, design: Design) -> None:
        self.design = design
        tile = design.config.tile_size
        self.tile_size = tile
        self.nx, self.ny = self.grid_shape(design)

        tech = design.technology
        stitches = design.stitches
        assert stitches is not None
        num_h_layers = len(tech.horizontal_layers)
        num_v_layers = len(tech.vertical_layers)

        # Per-tile-column vertical track counts.
        v_usable = np.zeros(self.nx, dtype=np.int64)
        v_friendly = np.zeros(self.nx, dtype=np.int64)
        for i in range(self.nx):
            span = self.tile_span((i, 0))
            v_usable[i] = stitches.usable_vertical_tracks(span.x_lo, span.x_hi)
            v_friendly[i] = stitches.friendly_vertical_tracks(
                span.x_lo, span.x_hi
            )
        # Per-tile-row horizontal track counts.
        h_tracks = np.zeros(self.ny, dtype=np.int64)
        for j in range(self.ny):
            span = self.tile_span((0, j))
            h_tracks[j] = span.y_hi - span.y_lo + 1

        # Edge capacities.  A horizontal edge at row j carries wires on
        # the horizontal tracks of that row across all horizontal
        # layers; a vertical edge in column i carries wires on the
        # usable vertical tracks across all vertical layers.
        self.h_capacity = np.tile(
            (h_tracks * num_h_layers)[None, :], (max(self.nx - 1, 0), 1)
        ).astype(np.int64)
        self.v_capacity = np.tile(
            (v_usable * num_v_layers)[:, None], (1, max(self.ny - 1, 0))
        ).astype(np.int64)
        # Vertex (line-end) capacity of each tile.
        self.vertex_capacity = np.tile(
            (v_friendly * num_v_layers)[:, None], (1, self.ny)
        ).astype(np.int64)

        self.h_demand = np.zeros_like(self.h_capacity)
        self.v_demand = np.zeros_like(self.v_capacity)
        self.vertex_demand = np.zeros_like(self.vertex_capacity)
        self.h_history = np.zeros(self.h_capacity.shape, dtype=np.float64)
        self.v_history = np.zeros(self.v_capacity.shape, dtype=np.float64)
        self.vertex_history = np.zeros(
            self.vertex_capacity.shape, dtype=np.float64
        )
        self.refresh_cost_cache()

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def snapshot(self) -> "GraphSnapshot":
        """Private-demand snapshot (with cloned caches) for speculation."""
        from .overlay import GraphSnapshot  # local: overlay imports graph

        return GraphSnapshot(self)

    # ------------------------------------------------------------------
    # Shared-memory state transport (the process-pool backend)
    # ------------------------------------------------------------------
    #: The per-stage *mutable* arrays a process-pool worker must track.
    #: Capacities are construction-time constants every worker already
    #: holds, so they never travel.
    _SHARED_STATE_KEYS = (
        "h_demand",
        "v_demand",
        "vertex_demand",
        "h_history",
        "v_history",
        "vertex_history",
    )

    def shared_state_arrays(self) -> dict[str, "np.ndarray"]:
        """The mutable routing state, keyed for shared-memory export.

        The cost caches travel too, sparing every worker a per-epoch
        :meth:`refresh_cost_cache` rebuild; ``float64 -> list`` round
        trips are exact, so workers see bit-identical cache entries.
        """
        arrays = {key: getattr(self, key) for key in self._SHARED_STATE_KEYS}
        nx, ny = self.nx, self.ny
        arrays["h_cost"] = np.asarray(
            self._h_cost, dtype=np.float64
        ).reshape(max(nx - 1, 0), ny)
        arrays["v_cost"] = np.asarray(
            self._v_cost, dtype=np.float64
        ).reshape(nx, max(ny - 1, 0))
        arrays["v_price"] = np.asarray(
            self._v_price, dtype=np.float64
        ).reshape(nx, ny)
        return arrays

    def import_shared_state(self, arrays: dict[str, "np.ndarray"]) -> None:
        """Overwrite the mutable state from exported views, in place.

        In-place copies keep any outstanding snapshot references (which
        borrow the history arrays) aimed at the live data.
        """
        for key in self._SHARED_STATE_KEYS:
            np.copyto(getattr(self, key), arrays[key])
        self._h_cost = arrays["h_cost"].tolist()
        self._v_cost = arrays["v_cost"].tolist()
        self._v_price = arrays["v_price"].tolist()

    # ------------------------------------------------------------------
    # Tile geometry
    # ------------------------------------------------------------------
    @classmethod
    def grid_shape(cls, design: Design) -> tuple[int, int]:
        """Tile grid dimensions ``(nx, ny)`` the graph would have.

        Lets callers (the multilevel scheme in particular) size the
        hierarchy without building the capacity arrays of a full graph.
        """
        tile = design.config.tile_size
        nx = max(1, (design.width + tile - 1) // tile)
        ny = max(1, (design.height + tile - 1) // tile)
        return nx, ny

    # ------------------------------------------------------------------
    def tile_span(self, tile: Tile) -> TileSpan:
        """Grid extent covered by ``tile``."""
        i, j = tile
        t = self.tile_size
        return TileSpan(
            x_lo=i * t,
            x_hi=min((i + 1) * t, self.design.width) - 1,
            y_lo=j * t,
            y_hi=min((j + 1) * t, self.design.height) - 1,
        )

    def tile_of(self, x: int, y: int) -> Tile:
        """The tile containing grid cell ``(x, y)``."""
        if not (0 <= x < self.design.width and 0 <= y < self.design.height):
            raise ValueError(f"cell ({x}, {y}) outside die")
        return (
            min(x // self.tile_size, self.nx - 1),
            min(y // self.tile_size, self.ny - 1),
        )

    def tiles(self) -> Iterator[Tile]:
        """All tiles in row-major order."""
        for j in range(self.ny):
            for i in range(self.nx):
                yield (i, j)

    def neighbors(self, tile: Tile) -> list[Tile]:
        """4-adjacent tiles inside the grid."""
        i, j = tile
        out = []
        if i > 0:
            out.append((i - 1, j))
        if i + 1 < self.nx:
            out.append((i + 1, j))
        if j > 0:
            out.append((i, j - 1))
        if j + 1 < self.ny:
            out.append((i, j + 1))
        return out

    # ------------------------------------------------------------------
    # Edge bookkeeping
    # ------------------------------------------------------------------
    def edge_between(self, a: Tile, b: Tile) -> tuple[str, int, int]:
        """Canonical (kind, i, j) key of the edge between adjacent tiles."""
        (ia, ja), (ib, jb) = a, b
        if ja == jb and abs(ia - ib) == 1:
            return ("h", min(ia, ib), ja)
        if ia == ib and abs(ja - jb) == 1:
            return ("v", ia, min(ja, jb))
        raise ValueError(
            f"tiles {a} and {b} are not adjacent"
        )

    def edge_capacity(self, key: tuple[str, int, int]) -> int:
        """Capacity of the edge ``key``."""
        kind, i, j = key
        return int(self.h_capacity[i, j] if kind == "h" else self.v_capacity[i, j])

    def edge_demand(self, key: tuple[str, int, int]) -> int:
        """Current demand of the edge ``key``."""
        kind, i, j = key
        return int(self.h_demand[i, j] if kind == "h" else self.v_demand[i, j])

    # ------------------------------------------------------------------
    # Cost caches
    # ------------------------------------------------------------------
    #: Profiling counters (``RouterConfig(profile=...)``): wholesale
    #: cache rebuilds and entry-wise incremental updates.  Class-level
    #: zeros; the first increment creates the instance attribute, so
    #: snapshots (thread-local clones) count separately and the live
    #: graph's totals are what the router reports at stage end.
    perf_cache_refreshes = 0
    perf_cache_updates = 0

    def refresh_cost_cache(self) -> None:
        """Rebuild every cache entry from the scalar reference kernels.

        Called at construction and by the router after the history
        bump (which mutates the history arrays behind the graph's
        back).  Entries come from the scalar kernels of
        :mod:`~repro.globalroute.cost`, so every cached float equals
        the Eq. (1)–(3) price bit for bit.
        """
        self.perf_cache_refreshes += 1
        nx, ny = self.nx, self.ny
        self._h_cost = [
            [WL_WEIGHT + edge_cost_if_used(self, ("h", i, j)) for j in range(ny)]
            for i in range(nx - 1)
        ]
        self._v_cost = [
            [WL_WEIGHT + edge_cost_if_used(self, ("v", i, j)) for j in range(ny - 1)]
            for i in range(nx)
        ]
        self._v_price = [
            [vertex_price(self, (i, j)) for j in range(ny)] for i in range(nx)
        ]

    # Demand mutators keep the caches fresh.
    def add_edge_demand(self, key: tuple[str, int, int], delta: int) -> None:
        """Adjust the demand of edge ``key`` by ``delta``."""
        kind, i, j = key
        self.perf_cache_updates += 1
        if kind == "h":
            self.h_demand[i, j] += delta
            self._h_cost[i][j] = WL_WEIGHT + edge_cost_if_used(self, key)
        else:
            self.v_demand[i, j] += delta
            self._v_cost[i][j] = WL_WEIGHT + edge_cost_if_used(self, key)

    def add_vertex_demand(self, tile: Tile, delta: int) -> None:
        """Adjust the line-end demand of ``tile`` by ``delta``."""
        i, j = tile
        self.vertex_demand[i, j] += delta
        self.perf_cache_updates += 1
        self._v_price[i][j] = vertex_price(self, tile)

    # ------------------------------------------------------------------
    # Maze search
    # ------------------------------------------------------------------
    def astar_in_window(
        self,
        src: Tile,
        dst: Tile,
        window: tuple[int, int, int, int],
        stitch_aware: bool,
        stats: dict[str, float],
        profile: bool = False,
    ) -> Optional[list[Tile]]:
        """Direction-aware tile A* between ``src`` and ``dst`` in ``window``.

        Search states carry the arrival direction so the vertex
        (line-end) cost of Eq. (2) is charged exactly where a vertical
        run starts or ends — the tiles whose line-end demand the path
        will raise — rather than diffusely along the whole path.  Step
        prices come from the cost caches; ``maze_expansions`` (and,
        with ``profile``, the ``perf_maze_heap_*`` counters) accumulate
        into ``stats``.  The caller handles ``src == dst``.

        States are ``((i, j), direction)`` pairs encoded
        order-preservingly as integers, so the ``(f, g, state)`` heap
        tie-break is the tuple order; successors are generated in
        :meth:`neighbors` order (left, right, down, up); the expansion
        counter increments before the target test (the opposite of the
        detailed A*); vertex prices are charged run-start, then
        run-end, then destination; relaxation keeps the ``1e-12``
        slack.
        """
        lo_x, lo_y, hi_x, hi_y = window
        nx, ny = self.nx, self.ny
        h_cost = self._h_cost
        v_cost = self._v_cost
        v_price = self._v_price
        di, dj = dst
        dst_code = di * ny + dj

        # State id: (i * ny + j) * 3 + dircode with "" -> 0, "h" -> 1,
        # "v" -> 2 — monotonic in the ((i, j), dir) tuple order.
        start = (src[0] * ny + src[1]) * 3
        best: dict[int, float] = {start: 0.0}
        parent: dict[int, int] = {}
        heap: list[tuple[float, float, int]] = [
            (WL_WEIGHT * (abs(src[0] - di) + abs(src[1] - dj)), 0.0, start)
        ]
        goal = -1
        expansions = 0
        pops = 0
        best_get = best.get
        heappop = heapq.heappop
        heappush = heapq.heappush
        while heap:
            _f, g, state = heappop(heap)
            pops += 1
            if g > best_get(state, _INF):
                continue
            expansions += 1
            tc, dircode = divmod(state, 3)
            if tc == dst_code:
                goal = state
                break
            i, j = divmod(tc, ny)
            vertical_run = dircode == 2

            # Successors in GlobalGraph.neighbors order: (i-1, j),
            # (i+1, j), (i, j-1), (i, j+1).
            if i > 0 and lo_x <= i - 1 <= hi_x and lo_y <= j <= hi_y:
                step = h_cost[i - 1][j]
                if stitch_aware and vertical_run:
                    # A vertical run just ended at this tile.
                    step = step + v_price[i][j]
                candidate = g + step
                succ_state = (tc - ny) * 3 + 1
                if candidate < best_get(succ_state, _INF) - 1e-12:
                    best[succ_state] = candidate
                    parent[succ_state] = state
                    heappush(
                        heap,
                        (
                            candidate + WL_WEIGHT * (abs(i - 1 - di) + abs(j - dj)),
                            candidate,
                            succ_state,
                        ),
                    )
            if i + 1 < nx and lo_x <= i + 1 <= hi_x and lo_y <= j <= hi_y:
                step = h_cost[i][j]
                if stitch_aware and vertical_run:
                    step = step + v_price[i][j]
                candidate = g + step
                succ_state = (tc + ny) * 3 + 1
                if candidate < best_get(succ_state, _INF) - 1e-12:
                    best[succ_state] = candidate
                    parent[succ_state] = state
                    heappush(
                        heap,
                        (
                            candidate + WL_WEIGHT * (abs(i + 1 - di) + abs(j - dj)),
                            candidate,
                            succ_state,
                        ),
                    )
            if j > 0 and lo_x <= i <= hi_x and lo_y <= j - 1 <= hi_y:
                step = v_cost[i][j - 1]
                if stitch_aware:
                    if not vertical_run:
                        # A vertical run starts: line end at this tile.
                        step = step + v_price[i][j]
                    if tc - 1 == dst_code:
                        # The run will terminate at the target tile.
                        step = step + v_price[i][j - 1]
                candidate = g + step
                succ_state = (tc - 1) * 3 + 2
                if candidate < best_get(succ_state, _INF) - 1e-12:
                    best[succ_state] = candidate
                    parent[succ_state] = state
                    heappush(
                        heap,
                        (
                            candidate + WL_WEIGHT * (abs(i - di) + abs(j - 1 - dj)),
                            candidate,
                            succ_state,
                        ),
                    )
            if j + 1 < ny and lo_x <= i <= hi_x and lo_y <= j + 1 <= hi_y:
                step = v_cost[i][j]
                if stitch_aware:
                    if not vertical_run:
                        step = step + v_price[i][j]
                    if tc + 1 == dst_code:
                        step = step + v_price[i][j + 1]
                candidate = g + step
                succ_state = (tc + 1) * 3 + 2
                if candidate < best_get(succ_state, _INF) - 1e-12:
                    best[succ_state] = candidate
                    parent[succ_state] = state
                    heappush(
                        heap,
                        (
                            candidate + WL_WEIGHT * (abs(i - di) + abs(j + 1 - dj)),
                            candidate,
                            succ_state,
                        ),
                    )
        stats["maze_expansions"] = stats.get("maze_expansions", 0) + expansions
        if profile:
            # pushes == pops + len(heap) (heap invariant — the seed
            # entry counts as a push), so one add per pop suffices.
            stats["perf_maze_heap_pushes"] = (
                stats.get("perf_maze_heap_pushes", 0) + pops + len(heap)
            )
            stats["perf_maze_heap_pops"] = (
                stats.get("perf_maze_heap_pops", 0) + pops
            )
        if goal < 0:
            return None
        states = [goal]
        while states[-1] != start:
            states.append(parent[states[-1]])
        states.reverse()
        return [divmod(s // 3, ny) for s in states]

    # ------------------------------------------------------------------
    # Overflow metrics (Table IV)
    # ------------------------------------------------------------------
    def edge_overflow(self) -> int:
        """Total wire overflow over all edges."""
        h = np.maximum(self.h_demand - self.h_capacity, 0).sum()
        v = np.maximum(self.v_demand - self.v_capacity, 0).sum()
        return int(h + v)

    def total_vertex_overflow(self) -> int:
        """TVOF: summed line-end overflow over all tiles."""
        return int(
            np.maximum(self.vertex_demand - self.vertex_capacity, 0).sum()
        )

    def max_vertex_overflow(self) -> int:
        """MVOF: worst line-end overflow among all tiles."""
        if self.vertex_demand.size == 0:
            return 0
        return int(
            np.maximum(self.vertex_demand - self.vertex_capacity, 0).max()
        )
