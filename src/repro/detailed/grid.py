"""The detailed routing grid: occupancy, legality, stitch-aware costs.

Nodes are ``(x, y, layer)`` with preferred-direction routing: horizontal
layers move in x, vertical layers in y, and z moves hop one layer.  The
hard MEBL constraints of Section II-A are enforced structurally:

* vertical-layer nodes on a stitching-line track are unusable (vertical
  routing constraint) — wires can only cross a line in the x direction
  (Fig. 13);
* z moves (vias) at a stitching-line x are forbidden, except exactly at
  a fixed pin for which the via violation is permitted (and counted).

The soft costs of Eq. (10) live here too: ``beta`` for a z move inside
a stitch unfriendly region and ``gamma`` for occupying a vertical-layer
grid in the escape region (Section III-D1).

The search runs on flat integer node ids

    ``idx = (x * height + y) * num_layers + (layer - 1)``

so a planar x move is ``idx +- height * num_layers``, a planar y move
is ``idx +- num_layers`` and a via is ``idx +- 1``.  The encoding is
monotonic in ``(x, y, layer)``, so ordering ids compares exactly like
ordering node tuples — the ``(f, g, node)`` heap tie-break of the
reference search (:func:`~repro.detailed.search.reference_astar`) is
preserved bit for bit.  The base step-cost array (Eq. (10) ``alpha``
plus the ``gamma`` escape term, with a negative sentinel for
structurally blocked nodes), the per-x via surcharge and line flags,
the per-layer direction flags, the ownership-id array and the pin mask
are built once per stage into flat buffers (``array`` / ``bytearray``:
Python indexes them like lists, the compiled search kernel of
:mod:`repro.detailed.kernel` reads them in place), and overlays borrow
them by reference.  The ``_owner`` dict stays authoritative; every
ownership mutator mirrors its effect into the id array.
"""

from __future__ import annotations

import time
from array import array
from collections.abc import Iterable
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..config import RouterConfig
from ..geometry import GridPoint
from ..layout import Design
from . import kernel

if TYPE_CHECKING:
    from .overlay import GridOverlay

Node = tuple[int, int, int]  # (x, y, layer)

#: Step-cost sentinel for structurally blocked nodes (vertical layer on
#: a stitching-line track).  Negative so the search can test
#: ``step >= 0.0`` instead of comparing against infinity.
_BLOCKED_STEP = -1.0


class DetailedGrid:
    """Occupancy-tracked 3-D routing grid for one design."""

    #: Ownership-change journal (``None`` = off).  A class attribute on
    #: purpose: :class:`~repro.detailed.overlay.GridOverlay` skips
    #: ``__init__`` when borrowing a live grid, and overlays must never
    #: journal — their writes are buffered, not committed.
    _journal: Optional[list[tuple[Node, Optional[str]]]] = None

    #: Overlay-only (``None`` on the base grid): buffered ownership ids
    #: and the indexed read log backing the speculative footprint.
    _local_ids: Optional[dict[int, int]] = None
    _reads_idx: Optional[set[int]] = None

    def __init__(self, design: Design, stitch_aware: bool = True) -> None:
        self.design = design
        self.config: RouterConfig = design.config
        self.tech = design.technology
        self.stitches = design.stitches
        assert self.stitches is not None
        self.stitch_aware = stitch_aware
        #: node -> owning net name
        self._owner: dict[Node, str] = {}
        #: fixed pin nodes (inviolable even during negotiated rip-up)
        self._pins: set[Node] = set()
        # Precomputed per-x flags (columns are few; lookups are hot).
        columns = range(design.width)
        self._on_line = bytearray(self.stitches.is_on_line(x) for x in columns)
        self._unfriendly = bytearray(
            self.stitches.in_unfriendly_region(x) for x in columns
        )
        self._escape = bytearray(self.stitches.in_escape_region(x) for x in columns)
        # Per-layer caches (index 0 unused; layers are 1-based).
        self._vertical = bytearray(
            [False] + [self.tech.is_vertical(m) for m in self.tech.layers]
        )
        self._num_layers = self.tech.num_layers
        self._width = design.width
        self._height = design.height
        #: Eq. (10) step costs computed so far (one per legal successor
        #: the search generates); read by the detailed router's tracer
        #: flush.
        self.cost_evaluations = 0
        self._build_arrays(design)

    def _build_arrays(self, design: Design) -> None:
        """Flat per-node arrays the indexed search reads."""
        width, height, layers_n = self._width, self._height, self._num_layers
        self._hl = height * layers_n
        config = self.config
        # Base step cost of entering each node: Eq. (10) alpha plus the
        # gamma escape term, blocked sentinel where the structural MEBL
        # constraint applies.  float64 arithmetic is bit-identical to
        # the scalar reference (single additions, same operands), and
        # C-order flattening matches the id encoding.
        base = np.full((width, height, layers_n), config.alpha, dtype=np.float64)
        vert_layers = np.array(self._vertical[1:], dtype=bool)
        all_rows = np.ones(height, dtype=bool)
        if self.stitch_aware:
            escape_cols = np.array(self._escape, dtype=bool)
            base[np.ix_(escape_cols, all_rows, vert_layers)] += config.gamma
        line_cols = np.array(self._on_line, dtype=bool)
        base[np.ix_(line_cols, all_rows, vert_layers)] = _BLOCKED_STEP
        self._step = array("d", base.reshape(-1).tobytes())
        #: Per-x via surcharge (Eq. (10) beta inside unfriendly regions).
        self._via_extra = array("d", [
            config.beta if (self.stitch_aware and unfriendly) else 0.0
            for unfriendly in self._unfriendly
        ])
        size = width * self._hl
        self._owner_ids = array("i", bytes(4 * size))
        self._pin_mask = bytearray(size)
        #: net name -> positive integer id (0 means free).  Filled for
        #: the whole netlist up front so worker threads never mutate it.
        self._net_ids: dict[str, int] = {}
        for net in design.netlist:
            self._net_id(net.name)
        #: The compiled kernel's view of the buffers (loads no library).
        self._kernel_view = kernel.GridView(
            (self._step, self._owner_ids, self._pin_mask, self._via_extra,
             self._on_line, self._vertical),
            width, height, layers_n,
        )

    # ------------------------------------------------------------------
    # Geometry / legality
    # ------------------------------------------------------------------
    def in_bounds(self, node: Node) -> bool:
        """Whether the node lies inside the die and layer stack."""
        x, y, layer = node
        return (
            0 <= x < self.design.width
            and 0 <= y < self.design.height
            and 1 <= layer <= self.tech.num_layers
        )

    def is_blocked(self, node: Node) -> bool:
        """Structurally unusable node (vertical layer on a line track)."""
        x, _y, layer = node
        return bool(self._vertical[layer] and self._on_line[x])

    def on_stitch_line(self, x: int) -> bool:
        """Whether column ``x`` is a stitching line."""
        return bool(self._on_line[x])

    def in_unfriendly(self, x: int) -> bool:
        """Whether column ``x`` is in a stitch unfriendly region."""
        return bool(self._unfriendly[x])

    def in_escape(self, x: int) -> bool:
        """Whether column ``x`` is in an escape region."""
        return bool(self._escape[x])

    # ------------------------------------------------------------------
    # Node ids
    # ------------------------------------------------------------------
    def _encode(self, node: Node) -> int:
        """Flat id of a node; monotonic in ``(x, y, layer)``."""
        x, y, layer = node
        return (x * self._height + y) * self._num_layers + layer - 1

    def _decode(self, idx: int) -> Node:
        """Node tuple of a flat id (inverse of :meth:`_encode`)."""
        x, rem = divmod(idx, self._hl)
        y, lm = divmod(rem, self._num_layers)
        return (x, y, lm + 1)

    def _net_id(self, net: str) -> int:
        """Integer id of ``net`` in the ownership array (never 0)."""
        nid = self._net_ids.get(net)
        if nid is None:
            nid = len(self._net_ids) + 1
            self._net_ids[net] = nid
        return nid

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------
    def owner(self, node: Node) -> Optional[str]:
        """Net owning ``node``, if any."""
        return self._owner.get(node)

    def mark_pin(self, node: Node) -> None:
        """Register a fixed pin node (never rippable by other nets)."""
        self._pins.add(node)
        self._pin_mask[self._encode(node)] = 1

    def is_pin(self, node: Node) -> bool:
        """Whether ``node`` is a fixed pin."""
        return node in self._pins

    def occupy(self, node: Node, net: str) -> None:
        """Claim ``node`` for ``net`` (idempotent for the same net)."""
        current = self._owner.get(node)
        if current is not None and current != net:
            raise ValueError(
                f"node {node} already owned by {current!r}, not {net!r}"
            )
        self._owner[node] = net
        if self._journal is not None and current != net:
            self._journal.append((node, net))
        self._mirror_owner(node, net)

    def force_occupy(self, node: Node, net: str) -> Optional[str]:
        """Claim ``node`` for ``net``, evicting any previous owner.

        Returns the evicted net's name (None if the node was free or
        already owned by ``net``).  Used by negotiated rip-up.
        """
        if node in self._pins and self._owner.get(node) != net:
            raise ValueError(f"pin node {node} cannot change owner")
        previous = self._owner.get(node)
        self._owner[node] = net
        if self._journal is not None and previous != net:
            self._journal.append((node, net))
        self._mirror_owner(node, net)
        return previous if previous not in (None, net) else None

    def release(self, node: Node, net: str) -> None:
        """Release ``node`` previously claimed by ``net``.

        Pin nodes are never released: a transiently free pin could be
        claimed by another net's search, making its net unroutable.
        """
        if node in self._pins:
            return
        if self._owner.get(node) == net:
            del self._owner[node]
            if self._journal is not None:
                self._journal.append((node, None))
            self._mirror_owner(node, None)

    def _mirror_owner(self, node: Node, net: Optional[str]) -> None:
        """Copy one ownership write into the id array."""
        self._owner_ids[self._encode(node)] = (
            0 if net is None else self._net_id(net)
        )

    # ------------------------------------------------------------------
    # Ownership journal (process-pool state sync)
    # ------------------------------------------------------------------
    def start_journal(self) -> None:
        """Begin recording committed ownership changes.

        Each entry is an absolute assignment ``(node, owner-or-None)``
        — replaying any already-applied prefix in order is idempotent,
        which is what lets late-forked pool workers catch up from a
        mid-stage snapshot (see ``docs/parallelism.md``).
        """
        self._journal = []

    def drain_journal(self) -> list[tuple[Node, Optional[str]]]:
        """Return and clear the entries recorded since the last drain."""
        entries = self._journal if self._journal is not None else []
        if self._journal is not None:
            self._journal = []
        return entries

    def stop_journal(self) -> None:
        """Stop recording ownership changes (drops pending entries)."""
        self._journal = None

    def is_free_for(self, node: Node, net: str) -> bool:
        """Usable by ``net``: in bounds, not blocked, not foreign-owned."""
        if not self.in_bounds(node) or self.is_blocked(node):
            return False
        current = self._owner.get(node)
        return current is None or current == net

    def occupied_by(self, net: str) -> set[Node]:
        """All nodes currently owned by ``net`` (linear scan; tests only)."""
        return {n for n, owner in self._owner.items() if owner == net}

    # ------------------------------------------------------------------
    # Moves and costs (Eq. 10)
    # ------------------------------------------------------------------
    def neighbors(
        self,
        node: Node,
        net: str,
        foreign_penalty: Optional[float] = None,
    ) -> list[tuple[Node, float]]:
        """Legal successor nodes with their Eq. (10) step costs.

        Derives every cost straight from the config; the reference
        search walks these, :meth:`indexed_search` reads the same
        values from the precomputed arrays.

        Routed vias are never allowed on a stitching line (via
        constraint).  The via violations Problem 1 permits on fixed
        pins are the implicit cell contacts *below* layer 1, which the
        evaluator counts per routed on-line pin — they involve no grid
        move here.

        When ``foreign_penalty`` is given, nodes owned by other nets
        become passable at that extra cost — negotiated rip-up: the
        router later rips the victims the chosen path runs through.
        Foreign *pin* nodes stay hard obstacles.
        """
        x, y, layer = node
        out: list[tuple[Node, float]] = []
        config = self.config
        planar = (
            ((x, y - 1, layer), (x, y + 1, layer))
            if self._vertical[layer]
            else ((x - 1, y, layer), (x + 1, y, layer))
        )
        for succ in planar:
            passable, extra = self._passable(succ, net, foreign_penalty)
            if passable:
                out.append(
                    (
                        succ,
                        config.alpha
                        + self._node_cost(succ)
                        + extra,
                    )
                )
        for succ in ((x, y, layer - 1), (x, y, layer + 1)):
            passable, extra = self._passable(succ, net, foreign_penalty)
            if not passable:
                continue
            if self._on_line[x]:
                continue  # via constraint (hard)
            cost = config.alpha + self._node_cost(succ) + extra
            if self.stitch_aware and self._unfriendly[x]:
                # via in stitch unfriendly region
                cost += config.beta
            out.append((succ, cost))
        self.cost_evaluations += len(out)
        return out

    def _passable(
        self, node: Node, net: str, foreign_penalty: Optional[float]
    ) -> tuple[bool, float]:
        x, y, layer = node
        if not (0 <= x < self._width and 0 <= y < self._height):
            return False, 0.0
        if not 1 <= layer <= self._num_layers:
            return False, 0.0
        if self._vertical[layer] and self._on_line[x]:
            return False, 0.0
        owner = self._owner.get(node)
        if owner is None or owner == net:
            return True, 0.0
        if foreign_penalty is not None and node not in self._pins:
            return True, foreign_penalty
        return False, 0.0

    def _node_cost(self, node: Node) -> float:
        """Escape-region cost of entering ``node`` (gamma term)."""
        if not self.stitch_aware:
            return 0.0
        x, _y, layer = node
        if self._vertical[layer] and self._escape[x]:
            return self.config.gamma
        return 0.0

    def speculative_overlay(self) -> "GridOverlay":
        """Fresh buffered-write overlay of this grid."""
        from .overlay import GridOverlay  # local: overlay imports grid

        return GridOverlay(self)

    # ------------------------------------------------------------------
    # Indexed A* (the production search)
    # ------------------------------------------------------------------
    def indexed_search(
        self,
        net: str,
        sources: set[Node],
        targets: set[Node],
        window: tuple[int, int, int, int],
        expansion_limit: int,
        blocked: Optional[set[Node]] = None,
        foreign_penalty: Optional[float] = None,
        stats: Optional[dict[str, float]] = None,
        profile: bool = False,
    ) -> Optional[list[Node]]:
        """Eq. (10) A* over flat node ids; the heap loop of ``astar_connect``.

        Same arguments, result and counters as
        :func:`~repro.detailed.search.reference_astar` (minus the grid),
        after its preamble.  Runs in the compiled kernel, or in the
        bit-identical :func:`~repro.detailed.search.reference_heap_loop`
        when none could be built.  ``profile=True`` also adds this
        call's wall time to ``perf_search_s``.
        """
        started = time.perf_counter() if profile else 0.0
        args = (net, sources, targets, window, expansion_limit, blocked,
                foreign_penalty)
        lib = kernel.load()
        if lib is None:
            from .search import reference_heap_loop  # local: search imports grid

            path = reference_heap_loop(self, *args, stats, profile)
        else:
            result = self._kernel_search(lib, *args)
            if self._reads_idx is not None:
                self._reads_idx.update(result.reads)
            self.cost_evaluations += result.evaluations
            if stats is not None:
                flush = [("astar_expansions", result.expansions)]
                if profile:
                    flush += [
                        ("perf_heap_pushes", result.pops + result.heap_left),
                        ("perf_heap_pops", result.pops),
                    ]
                for name, value in flush:
                    stats[name] = stats.get(name, 0) + value
            decode = self._decode
            path = None if result.path is None else [decode(i) for i in result.path]
        if profile and stats is not None:
            stats["perf_search_s"] = stats.get("perf_search_s", 0.0) + (
                time.perf_counter() - started
            )
        return path

    def _kernel_search(
        self, lib: kernel.Kernel, net: str, sources: set[Node],
        targets: set[Node], window: tuple[int, int, int, int],
        expansion_limit: int, blocked: Optional[set[Node]],
        foreign_penalty: Optional[float],
    ) -> kernel.SearchResult:
        """One kernel search, with no side effect on this grid."""
        encode = self._encode_ids
        return lib.search(
            self._kernel_view, encode(sources), encode(targets),
            encode(blocked or ()), self._local_ids,
            self._net_id(net), foreign_penalty, window, expansion_limit,
            1.3 * self.config.alpha,
        )

    def _encode_ids(self, nodes: Iterable[Node]) -> array:
        """Flat ids of ``nodes``; their order is immaterial to the kernel,
        which keys every set by id and orders its heap on ``(f, g, id)``."""
        height, layers_n = self._height, self._num_layers
        return array(
            "q", [(x * height + y) * layers_n + layer - 1 for x, y, layer in nodes]
        )


def nodes_of_points(points: Iterable[GridPoint]) -> set[Node]:
    """Convert :class:`GridPoint` objects to plain node tuples."""
    return {(p.x, p.y, p.layer) for p in points}
