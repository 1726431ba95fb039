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
structurally blocked nodes), the per-x via surcharge, the ownership-id
array and the pin mask are built once per stage — numpy assembles
them, plain lists serve them, because the search reads single entries
where list indexing beats ndarray scalar access — and overlays borrow
them by reference.  The ``_owner`` dict stays authoritative; every
ownership mutator mirrors its effect into the id array.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from ..analysis.pairing import paired
from ..config import RouterConfig
from ..geometry import GridPoint
from ..layout import Design

if TYPE_CHECKING:
    from .overlay import GridOverlay

Node = tuple[int, int, int]  # (x, y, layer)

_INF = float("inf")

#: Step-cost sentinel for structurally blocked nodes (vertical layer on
#: a stitching-line track).  Negative so the hot loop can test
#: ``step >= 0.0`` instead of comparing against infinity.
_BLOCKED_STEP = -1.0

#: Sentinel in the ownership-folded step array (:attr:`_free_step`) for
#: nodes whose owner id is nonzero.  Distinct from ``_BLOCKED_STEP`` so
#: the fast loop can tell "owned — maybe by me" (recheck the id array)
#: from "structurally blocked" (reject outright) with one comparison.
_OWNED_STEP = -2.0


def _never_called(_: int) -> None:  # pragma: no cover - typing placeholder
    raise AssertionError("read logger invoked on a non-overlay grid")


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
        self._on_line = [self.stitches.is_on_line(x) for x in range(design.width)]
        self._unfriendly = [
            self.stitches.in_unfriendly_region(x) for x in range(design.width)
        ]
        self._escape = [
            self.stitches.in_escape_region(x) for x in range(design.width)
        ]
        # Per-layer caches (index 0 unused; layers are 1-based).
        self._vertical = [False] + [
            self.tech.is_vertical(m) for m in self.tech.layers
        ]
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
        self._step: list[float] = base.reshape(-1).tolist()
        #: Per-x via surcharge (Eq. (10) beta inside unfriendly regions).
        self._via_extra = [
            config.beta if (self.stitch_aware and unfriendly) else 0.0
            for unfriendly in self._unfriendly
        ]
        size = width * self._hl
        self._owner_ids = [0] * size
        #: ``_step`` with ``_OWNED_STEP`` folded in wherever the owner
        #: id is nonzero, so the base-grid loop resolves the common
        #: free-node candidate with a single load and compare.  The
        #: ownership mutators keep it in sync; overlays never read it.
        #: Every node starts free, so it begins as a copy of ``_step``.
        self._free_step = list(self._step)
        self._pin_mask = bytearray(size)
        #: net name -> positive integer id (0 means free).  Filled for
        #: the whole netlist up front so worker threads never mutate it.
        self._net_ids: dict[str, int] = {}
        for net in design.netlist:
            self._net_id(net.name)

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
        return self._vertical[layer] and self._on_line[x]

    def on_stitch_line(self, x: int) -> bool:
        """Whether column ``x`` is a stitching line."""
        return self._on_line[x]

    def in_unfriendly(self, x: int) -> bool:
        """Whether column ``x`` is in a stitch unfriendly region."""
        return self._unfriendly[x]

    def in_escape(self, x: int) -> bool:
        """Whether column ``x`` is in an escape region."""
        return self._escape[x]

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
        """Copy one ownership write into the id and folded-step arrays."""
        idx = self._encode(node)
        if net is None:
            self._owner_ids[idx] = 0
            self._free_step[idx] = self._step[idx]
        else:
            self._owner_ids[idx] = self._net_id(net)
            self._free_step[idx] = _OWNED_STEP

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
                cost += config.beta  # repro: allow-PAR003 indexed search reads the via table
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
            return self.config.gamma  # repro: allow-PAR003 indexed search reads the step array
        return 0.0

    def speculative_overlay(self) -> "GridOverlay":
        """Fresh buffered-write overlay of this grid."""
        from .overlay import GridOverlay  # local: overlay imports grid

        return GridOverlay(self)

    # ------------------------------------------------------------------
    # Indexed A* (the production search)
    # ------------------------------------------------------------------
    @paired("detailed-astar", backend="array")
    def indexed_search(  # repro: allow-PAR006 the grid argument is the receiver on this side
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

        Same arguments and result as
        :func:`~repro.detailed.search.reference_astar` (minus the grid,
        which is ``self``), same counter increments; called by
        ``astar_connect`` after its shared preamble (search counting,
        empty-set and shared-node shortcuts), so only the heap loop
        lives here.

        Byte-identity notes: candidates are generated in the reference
        search's order (planar minus, planar plus, via down, via up);
        ownership is consulted — and read-logged on overlays — exactly
        when ``_passable`` would consult it (after bounds and the
        structural-block test, *before* the on-line via filter);
        ``cost_evaluations`` counts passable candidates before the
        window/blocked filters; the expansion counter increments after
        the target test; relaxation keeps the ``1e-12`` slack.  All
        step costs replicate the reference association order, so every
        float compares equal bit for bit.

        ``profile=True`` flushes ``perf_heap_pops`` / ``perf_heap_pushes``
        into ``stats``.  Only pops are counted in the loop (one add per
        expansion-candidate pop, unconditionally, so both modes run the
        same instructions); pushes are derived exactly at flush time
        from the heap invariant ``pushes == pops + len(heap)``, which
        matches the reference loop's explicit push count bit for bit.
        """
        lo_x, lo_y, hi_x, hi_y = window
        weight = 1.3 * self.config.alpha

        encode = self._encode
        width = self._width
        height = self._height
        layers_n = self._num_layers
        hl = self._hl

        # Target bbox + encoded ids.  Rip-up reconnects pass whole net
        # components as targets, so this setup is O(|targets|) per
        # search; one vectorized pass replaces four scans plus a
        # per-node encode.  Integer arithmetic is exact either way —
        # both branches produce identical values.
        if len(targets) >= 16:
            tarr = np.array(
                list(targets), dtype=np.int64  # repro: allow-DET001 min/max + frozenset
            )
            txs, tys = tarr[:, 0], tarr[:, 1]
            t_lo_x = int(txs.min())
            t_hi_x = int(txs.max())
            t_lo_y = int(tys.min())
            t_hi_y = int(tys.max())
            tgt = frozenset(
                ((txs * height + tys) * layers_n + tarr[:, 2] - 1).tolist()
            )
        else:
            t_lo_x = min(t[0] for t in targets)
            t_hi_x = max(t[0] for t in targets)
            t_lo_y = min(t[1] for t in targets)
            t_hi_y = max(t[1] for t in targets)
            tgt = frozenset(
                encode(t) for t in targets
            )
        step = self._step
        via_extra = self._via_extra
        on_line = self._on_line
        vertical = self._vertical
        owner_ids = self._owner_ids
        pins = self._pin_mask
        net_id = self._net_id(net)
        fp = foreign_penalty

        local_ids = self._local_ids
        reads_idx = self._reads_idx
        if local_ids is not None and reads_idx is not None:
            local_get: Optional[Callable[[int], Optional[int]]] = local_ids.get
            reads_add: Callable[[int], None] = reads_idx.add
        else:
            local_get = None
            reads_add = _never_called

        blk: Optional[frozenset] = None
        if blocked is not None:
            blk = frozenset(encode(b) for b in blocked)

        # Seeding order over the source set is immaterial: best_g is a
        # pure mapping and heap entries are totally ordered by
        # (f, g, id), so pop order never depends on insertion order —
        # the same argument astar_connect documents for tuple nodes.
        # Large source sets (rip-up reconnects seed whole components)
        # take the vectorized branch; the clipped distances and the
        # int64 encode produce the same values as the scalar branch,
        # and ``weight * int`` multiplies identically in float64.
        #
        # Heap entries carry the node's clipped heuristic deltas as a
        # fourth and fifth element so the pop side reuses them instead
        # of recomputing eight comparisons per expansion.  They are a
        # pure function of the node id (given the fixed target bbox),
        # so two entries that tie on ``(f, g, id)`` carry equal deltas
        # and the heap order stays exactly the 3-tuple order.
        best_g: dict[int, float]
        src_idx: set[int]
        heap: list[tuple[float, float, int, int, int]]
        if len(sources) >= 16:
            sarr = np.array(
                list(sources), dtype=np.int64  # repro: allow-DET001 seeds a totally ordered heap
            )
            sxs, sys_ = sarr[:, 0], sarr[:, 1]
            sdx = np.maximum(np.maximum(t_lo_x - sxs, sxs - t_hi_x), 0)
            sdy = np.maximum(np.maximum(t_lo_y - sys_, sys_ - t_hi_y), 0)
            sis = ((sxs * height + sys_) * layers_n + sarr[:, 2] - 1).tolist()
            best_g = dict.fromkeys(sis, 0.0)
            src_idx = set(sis)
            heap = [
                (f0, 0.0, si0, dx0, dy0)
                for f0, si0, dx0, dy0 in zip(
                    (weight * (sdx + sdy)).tolist(),
                    sis,
                    sdx.tolist(),
                    sdy.tolist(),
                )
            ]
        else:
            best_g = {}
            src_idx = set()
            heap = []
            for s in sources:  # repro: allow-DET001 seeds a totally ordered heap
                x, y, _layer = s
                dx = (t_lo_x - x) if x < t_lo_x else (x - t_hi_x) if x > t_hi_x else 0
                dy = (t_lo_y - y) if y < t_lo_y else (y - t_hi_y) if y > t_hi_y else 0
                si = encode(s)
                best_g[si] = 0.0
                src_idx.add(si)
                heap.append((weight * (dx + dy), 0.0, si, dx, dy))
        heapq.heapify(heap)

        parent: dict[int, int] = {}
        best_g_get = best_g.get
        heappop = heapq.heappop
        heappush = heapq.heappush
        expansions = 0
        evals = 0
        pops = 0
        try:
            if local_get is None and fp is None and blk is None:
                # Specialized loop for the dominant case (~85% of the
                # searches on the gate circuits): base grid, no foreign
                # penalty, no blocked set.  Identical candidate order,
                # counter increments, and float association order as
                # the general loop below — only the branches that are
                # statically dead here (overlay read logging, the
                # penalty rewrite, the blocked filter) are removed, so
                # every produced value is bit-identical.  The via
                # blocks hoist the on-line filter above the ownership
                # read, and candidates consult the ownership-folded
                # step array first: on the base grid ownership reads
                # have no logging side effect, so both reorders are
                # unobservable and the owner id array is only touched
                # for owned nodes (to recheck against ``net_id``).
                free_step = self._free_step
                while heap:
                    _f, g, si, hdx, hdy = heappop(heap)
                    pops += 1
                    if g > best_g_get(si, _INF):
                        continue
                    if si in tgt:
                        rev = [si]
                        while rev[-1] not in src_idx:
                            rev.append(parent[rev[-1]])
                        rev.reverse()
                        decode = self._decode
                        return [decode(i) for i in rev]
                    expansions += 1
                    if expansions > expansion_limit:
                        return None
                    x = si // hl
                    rem = si - x * hl
                    y = rem // layers_n
                    lm = rem - y * layers_n
                    in_x = lo_x <= x <= hi_x
                    in_y = lo_y <= y <= hi_y
                    off_line = not on_line[x]

                    if vertical[lm + 1]:
                        if y > 0:
                            ci = si - layers_n
                            sc = free_step[ci]
                            if sc < 0.0:
                                sc = (
                                    step[ci]
                                    if sc == _OWNED_STEP and owner_ids[ci] == net_id
                                    else _BLOCKED_STEP
                                )
                            if sc >= 0.0:
                                evals += 1
                                ny_ = y - 1
                                if in_x and lo_y <= ny_ <= hi_y:
                                    candidate = g + sc
                                    if candidate < best_g_get(ci, _INF) - 1e-12:
                                        best_g[ci] = candidate
                                        parent[ci] = si
                                        dy = (
                                            (t_lo_y - ny_)
                                            if ny_ < t_lo_y
                                            else (ny_ - t_hi_y)
                                            if ny_ > t_hi_y
                                            else 0
                                        )
                                        heappush(
                                            heap,
                                            (
                                                candidate + weight * (hdx + dy),
                                                candidate,
                                                ci,
                                                hdx,
                                                dy,
                                            ),
                                        )
                        if y + 1 < height:
                            ci = si + layers_n
                            sc = free_step[ci]
                            if sc < 0.0:
                                sc = (
                                    step[ci]
                                    if sc == _OWNED_STEP and owner_ids[ci] == net_id
                                    else _BLOCKED_STEP
                                )
                            if sc >= 0.0:
                                evals += 1
                                ny_ = y + 1
                                if in_x and lo_y <= ny_ <= hi_y:
                                    candidate = g + sc
                                    if candidate < best_g_get(ci, _INF) - 1e-12:
                                        best_g[ci] = candidate
                                        parent[ci] = si
                                        dy = (
                                            (t_lo_y - ny_)
                                            if ny_ < t_lo_y
                                            else (ny_ - t_hi_y)
                                            if ny_ > t_hi_y
                                            else 0
                                        )
                                        heappush(
                                            heap,
                                            (
                                                candidate + weight * (hdx + dy),
                                                candidate,
                                                ci,
                                                hdx,
                                                dy,
                                            ),
                                        )
                    else:
                        if x > 0:
                            ci = si - hl
                            sc = free_step[ci]
                            if sc < 0.0:
                                sc = (
                                    step[ci]
                                    if sc == _OWNED_STEP and owner_ids[ci] == net_id
                                    else _BLOCKED_STEP
                                )
                            if sc >= 0.0:
                                evals += 1
                                nx_ = x - 1
                                if in_y and lo_x <= nx_ <= hi_x:
                                    candidate = g + sc
                                    if candidate < best_g_get(ci, _INF) - 1e-12:
                                        best_g[ci] = candidate
                                        parent[ci] = si
                                        dx = (
                                            (t_lo_x - nx_)
                                            if nx_ < t_lo_x
                                            else (nx_ - t_hi_x)
                                            if nx_ > t_hi_x
                                            else 0
                                        )
                                        heappush(
                                            heap,
                                            (
                                                candidate + weight * (dx + hdy),
                                                candidate,
                                                ci,
                                                dx,
                                                hdy,
                                            ),
                                        )
                        if x + 1 < width:
                            ci = si + hl
                            sc = free_step[ci]
                            if sc < 0.0:
                                sc = (
                                    step[ci]
                                    if sc == _OWNED_STEP and owner_ids[ci] == net_id
                                    else _BLOCKED_STEP
                                )
                            if sc >= 0.0:
                                evals += 1
                                nx_ = x + 1
                                if in_y and lo_x <= nx_ <= hi_x:
                                    candidate = g + sc
                                    if candidate < best_g_get(ci, _INF) - 1e-12:
                                        best_g[ci] = candidate
                                        parent[ci] = si
                                        dx = (
                                            (t_lo_x - nx_)
                                            if nx_ < t_lo_x
                                            else (nx_ - t_hi_x)
                                            if nx_ > t_hi_x
                                            else 0
                                        )
                                        heappush(
                                            heap,
                                            (
                                                candidate + weight * (dx + hdy),
                                                candidate,
                                                ci,
                                                dx,
                                                hdy,
                                            ),
                                        )

                    if off_line:
                        if lm > 0:
                            ci = si - 1
                            sc = free_step[ci]
                            if sc < 0.0:
                                sc = (
                                    step[ci]
                                    if sc == _OWNED_STEP and owner_ids[ci] == net_id
                                    else _BLOCKED_STEP
                                )
                            if sc >= 0.0:
                                evals += 1
                                sc = sc + via_extra[x]
                                if in_x and in_y:
                                    candidate = g + sc
                                    if candidate < best_g_get(ci, _INF) - 1e-12:
                                        best_g[ci] = candidate
                                        parent[ci] = si
                                        heappush(
                                            heap,
                                            (
                                                candidate + weight * (hdx + hdy),
                                                candidate,
                                                ci,
                                                hdx,
                                                hdy,
                                            ),
                                        )
                        if lm + 1 < layers_n:
                            ci = si + 1
                            sc = free_step[ci]
                            if sc < 0.0:
                                sc = (
                                    step[ci]
                                    if sc == _OWNED_STEP and owner_ids[ci] == net_id
                                    else _BLOCKED_STEP
                                )
                            if sc >= 0.0:
                                evals += 1
                                sc = sc + via_extra[x]
                                if in_x and in_y:
                                    candidate = g + sc
                                    if candidate < best_g_get(ci, _INF) - 1e-12:
                                        best_g[ci] = candidate
                                        parent[ci] = si
                                        heappush(
                                            heap,
                                            (
                                                candidate + weight * (hdx + hdy),
                                                candidate,
                                                ci,
                                                hdx,
                                                hdy,
                                            ),
                                        )
                return None

            while heap:
                _f, g, si, hdx, hdy = heappop(heap)
                pops += 1
                if g > best_g_get(si, _INF):
                    continue
                if si in tgt:
                    rev = [si]
                    while rev[-1] not in src_idx:
                        rev.append(parent[rev[-1]])
                    rev.reverse()
                    decode = self._decode
                    return [decode(i) for i in rev]
                expansions += 1
                if expansions > expansion_limit:
                    return None
                x = si // hl
                rem = si - x * hl
                y = rem // layers_n
                lm = rem - y * layers_n
                # Window status of the popped node: planar moves reuse
                # the unchanged coordinate's verdict, vias (same x and
                # y as the node) reuse both — matching the reference
                # search's full per-successor window test.
                in_x = lo_x <= x <= hi_x
                in_y = lo_y <= y <= hi_y
                off_line = not on_line[x]

                # --- planar moves (preferred direction only) ---------
                if vertical[lm + 1]:
                    if y > 0:
                        ci = si - layers_n
                        sc = step[ci]
                        if sc >= 0.0:
                            if local_get is None:
                                o = owner_ids[ci]
                            else:
                                reads_add(ci)
                                v = local_get(ci)
                                if v is None:
                                    o = owner_ids[ci]
                                else:
                                    o = 0 if v == -1 else v
                            if o == 0 or o == net_id:
                                ok = True
                            elif fp is not None and not pins[ci]:
                                ok = True
                                sc = sc + fp
                            else:
                                ok = False
                            if ok:
                                evals += 1
                                ny_ = y - 1
                                if (
                                    in_x
                                    and lo_y <= ny_ <= hi_y
                                    and (blk is None or ci not in blk)
                                ):
                                    candidate = g + sc
                                    if candidate < best_g_get(ci, _INF) - 1e-12:
                                        best_g[ci] = candidate
                                        parent[ci] = si
                                        dy = (
                                            (t_lo_y - ny_)
                                            if ny_ < t_lo_y
                                            else (ny_ - t_hi_y) if ny_ > t_hi_y else 0
                                        )
                                        heappush(
                                            heap,
                                            (
                                                candidate + weight * (hdx + dy),
                                                candidate,
                                                ci,
                                                hdx,
                                                dy,
                                            ),
                                        )
                    if y + 1 < height:
                        ci = si + layers_n
                        sc = step[ci]
                        if sc >= 0.0:
                            if local_get is None:
                                o = owner_ids[ci]
                            else:
                                reads_add(ci)
                                v = local_get(ci)
                                if v is None:
                                    o = owner_ids[ci]
                                else:
                                    o = 0 if v == -1 else v
                            if o == 0 or o == net_id:
                                ok = True
                            elif fp is not None and not pins[ci]:
                                ok = True
                                sc = sc + fp
                            else:
                                ok = False
                            if ok:
                                evals += 1
                                ny_ = y + 1
                                if (
                                    in_x
                                    and lo_y <= ny_ <= hi_y
                                    and (blk is None or ci not in blk)
                                ):
                                    candidate = g + sc
                                    if candidate < best_g_get(ci, _INF) - 1e-12:
                                        best_g[ci] = candidate
                                        parent[ci] = si
                                        dy = (
                                            (t_lo_y - ny_)
                                            if ny_ < t_lo_y
                                            else (ny_ - t_hi_y) if ny_ > t_hi_y else 0
                                        )
                                        heappush(
                                            heap,
                                            (
                                                candidate + weight * (hdx + dy),
                                                candidate,
                                                ci,
                                                hdx,
                                                dy,
                                            ),
                                        )
                else:
                    if x > 0:
                        ci = si - hl
                        sc = step[ci]
                        if sc >= 0.0:
                            if local_get is None:
                                o = owner_ids[ci]
                            else:
                                reads_add(ci)
                                v = local_get(ci)
                                if v is None:
                                    o = owner_ids[ci]
                                else:
                                    o = 0 if v == -1 else v
                            if o == 0 or o == net_id:
                                ok = True
                            elif fp is not None and not pins[ci]:
                                ok = True
                                sc = sc + fp
                            else:
                                ok = False
                            if ok:
                                evals += 1
                                nx_ = x - 1
                                if (
                                    in_y
                                    and lo_x <= nx_ <= hi_x
                                    and (blk is None or ci not in blk)
                                ):
                                    candidate = g + sc
                                    if candidate < best_g_get(ci, _INF) - 1e-12:
                                        best_g[ci] = candidate
                                        parent[ci] = si
                                        dx = (
                                            (t_lo_x - nx_)
                                            if nx_ < t_lo_x
                                            else (nx_ - t_hi_x) if nx_ > t_hi_x else 0
                                        )
                                        heappush(
                                            heap,
                                            (
                                                candidate + weight * (dx + hdy),
                                                candidate,
                                                ci,
                                                dx,
                                                hdy,
                                            ),
                                        )
                    if x + 1 < width:
                        ci = si + hl
                        sc = step[ci]
                        if sc >= 0.0:
                            if local_get is None:
                                o = owner_ids[ci]
                            else:
                                reads_add(ci)
                                v = local_get(ci)
                                if v is None:
                                    o = owner_ids[ci]
                                else:
                                    o = 0 if v == -1 else v
                            if o == 0 or o == net_id:
                                ok = True
                            elif fp is not None and not pins[ci]:
                                ok = True
                                sc = sc + fp
                            else:
                                ok = False
                            if ok:
                                evals += 1
                                nx_ = x + 1
                                if (
                                    in_y
                                    and lo_x <= nx_ <= hi_x
                                    and (blk is None or ci not in blk)
                                ):
                                    candidate = g + sc
                                    if candidate < best_g_get(ci, _INF) - 1e-12:
                                        best_g[ci] = candidate
                                        parent[ci] = si
                                        dx = (
                                            (t_lo_x - nx_)
                                            if nx_ < t_lo_x
                                            else (nx_ - t_hi_x) if nx_ > t_hi_x else 0
                                        )
                                        heappush(
                                            heap,
                                            (
                                                candidate + weight * (dx + hdy),
                                                candidate,
                                                ci,
                                                dx,
                                                hdy,
                                            ),
                                        )

                # --- z moves (vias) ----------------------------------
                # The ownership read happens before the on-line via
                # filter, exactly like _passable-then-filter in the
                # reference search — overlays must log these reads even
                # when the via is then forbidden.
                if lm > 0:
                    ci = si - 1
                    sc = step[ci]
                    if sc >= 0.0:
                        if local_get is None:
                            o = owner_ids[ci]
                        else:
                            reads_add(ci)
                            v = local_get(ci)
                            if v is None:
                                o = owner_ids[ci]
                            else:
                                o = 0 if v == -1 else v
                        if o == 0 or o == net_id:
                            ok = True
                        elif fp is not None and not pins[ci]:
                            ok = True
                            sc = sc + fp
                        else:
                            ok = False
                        if ok and off_line:
                            evals += 1
                            sc = sc + via_extra[x]
                            if in_x and in_y and (blk is None or ci not in blk):
                                candidate = g + sc
                                if candidate < best_g_get(ci, _INF) - 1e-12:
                                    best_g[ci] = candidate
                                    parent[ci] = si
                                    heappush(
                                        heap,
                                        (
                                            candidate + weight * (hdx + hdy),
                                            candidate,
                                            ci,
                                            hdx,
                                            hdy,
                                        ),
                                    )
                if lm + 1 < layers_n:
                    ci = si + 1
                    sc = step[ci]
                    if sc >= 0.0:
                        if local_get is None:
                            o = owner_ids[ci]
                        else:
                            reads_add(ci)
                            v = local_get(ci)
                            if v is None:
                                o = owner_ids[ci]
                            else:
                                o = 0 if v == -1 else v
                        if o == 0 or o == net_id:
                            ok = True
                        elif fp is not None and not pins[ci]:
                            ok = True
                            sc = sc + fp
                        else:
                            ok = False
                        if ok and off_line:
                            evals += 1
                            sc = sc + via_extra[x]
                            if in_x and in_y and (blk is None or ci not in blk):
                                candidate = g + sc
                                if candidate < best_g_get(ci, _INF) - 1e-12:
                                    best_g[ci] = candidate
                                    parent[ci] = si
                                    heappush(
                                        heap,
                                        (
                                            candidate + weight * (hdx + hdy),
                                            candidate,
                                            ci,
                                            hdx,
                                            hdy,
                                        ),
                                    )
            return None
        finally:
            # Hot loop: count locally, flush once per search (the same
            # contract the reference search keeps).
            self.cost_evaluations += evals
            if stats is not None:
                stats["astar_expansions"] = (
                    stats.get("astar_expansions", 0) + expansions
                )
                if profile:
                    # pushes == pops + len(heap) (heap invariant): the
                    # derived value equals the reference loop's explicit
                    # push count because the two loops are step-identical.
                    stats["perf_heap_pushes"] = (
                        stats.get("perf_heap_pushes", 0) + pops + len(heap)
                    )
                    stats["perf_heap_pops"] = (
                        stats.get("perf_heap_pops", 0) + pops
                    )


def nodes_of_points(points: Iterable[GridPoint]) -> set[Node]:
    """Convert :class:`GridPoint` objects to plain node tuples."""
    return {(p.x, p.y, p.layer) for p in points}
