"""Speculation-footprint sanitizer (dynamic overlay-protocol checks).

The merge loops of the parallel engine prove serial equivalence from
two declared footprints: a speculative global-route net declares the
A* windows it searched (all demand reads are bounded by them), and a
speculative detailed-route net declares the exact ownership node sets
it read and wrote (captured by its overlay).  Nothing at runtime
normally verifies those declarations — a future search that peeks
outside its window, or a code path that reaches around the overlay to
the live grid, would silently invalidate the equivalence proof.

This module is the TSan-style backstop: drop-in instrumented variants
of :class:`~repro.globalroute.overlay.GraphSnapshot` and
:class:`~repro.detailed.overlay.GridOverlay` that audit every actual
shared-state access during speculative execution and **fail loudly**
(:class:`SanitizerViolation`) on any access outside the declared
footprint.  They run the same searches as unsanitized speculation:
the snapshot's cost-cache rows are wrapped in auditing proxies, and
the overlay's compiled detailed searches are replayed by the reference
search as a shadow oracle.  Enabled with
``RouterConfig(sanitize=True)`` or the CLI ``--sanitize`` flag; clean
runs surface ``sanitize_*`` trace counters so the observability layer
reports the coverage.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Callable, Optional

import numpy as np

from ..detailed import kernel
from ..detailed.grid import DetailedGrid, Node
from ..detailed.overlay import GridOverlay, _OwnerOverlay
from ..detailed.search import reference_heap_loop
from ..globalroute.graph import GlobalGraph
from ..globalroute.overlay import GraphSnapshot, Rect


class SanitizerViolation(RuntimeError):
    """An undeclared shared-state access during speculative routing.

    Raised at the exact offending access (writes to frozen shared
    state, reads bypassing the overlay) or at post-run verification
    (reads outside the declared windows), with enough context to find
    the offending code path.
    """


# ======================================================================
# Global routing: audited demand arrays + window verification
# ======================================================================
class _AuditedArray:
    """Element-access proxy around one snapshot numpy array.

    Cell reads and writes are recorded as ``(kind, i, j)`` triples;
    writes to *shared* arrays (capacities, histories — frozen while a
    batch is in flight) raise immediately.  Only scalar ``[i, j]``
    access is audited because it is the only pattern the routing paths
    use on a snapshot; anything else fails loudly rather than slipping
    through unchecked.
    """

    __slots__ = ("_array", "_kind", "_log", "_shared")

    def __init__(
        self,
        array: np.ndarray,
        kind: str,
        log: set[tuple[str, int, int]],
        shared: bool,
    ) -> None:
        self._array = array
        self._kind = kind
        self._log = log
        self._shared = shared

    def _record(self, index: object) -> tuple[int, int]:
        if (
            isinstance(index, tuple)
            and len(index) == 2
            and all(isinstance(part, (int, np.integer)) for part in index)
        ):
            i, j = int(index[0]), int(index[1])
            self._log.add((self._kind, i, j))
            return i, j
        raise SanitizerViolation(
            f"unauditable access pattern {index!r} on snapshot array "
            f"{self._kind!r}: speculative code must use scalar [i, j] "
            "indexing"
        )

    def __getitem__(self, index: object) -> np.generic:
        i, j = self._record(index)
        return self._array[i, j]

    def __setitem__(self, index: object, value: object) -> None:
        i, j = self._record(index)
        if self._shared:
            raise SanitizerViolation(
                f"write to shared {self._kind!r} array at ({i}, {j}) "
                "during speculation: capacities and histories are frozen "
                "while a batch is in flight"
            )
        self._array[i, j] = value

    # Shape/dtype introspection passes through to the real array.
    def __getattr__(self, name: str) -> object:
        return getattr(self._array, name)


class _AuditedCacheRow:
    """One row ``cache[i]`` of a snapshot cost cache, access-logged.

    The indexed A* reads ``cache[i][j]``; every such read (and every
    write by the snapshot's own demand mutators) is recorded as the
    ``(kind, i, j)`` cell of the demand array it prices, so
    :meth:`SanitizedGraphSnapshot.verify` checks cache reads against
    the declared windows exactly like demand reads.
    """

    __slots__ = ("_row", "_kind", "_i", "_log")

    def __init__(
        self,
        row: list[float],
        kind: str,
        i: int,
        log: set[tuple[str, int, int]],
    ) -> None:
        self._row = row
        self._kind = kind
        self._i = i
        self._log = log

    def __getitem__(self, j: int) -> float:
        self._log.add((self._kind, self._i, j))
        return self._row[j]

    def __setitem__(self, j: int, value: float) -> None:
        self._log.add((self._kind, self._i, j))
        self._row[j] = value


class SanitizedGraphSnapshot(GraphSnapshot):
    """A :class:`GraphSnapshot` that audits every cell access.

    Demand arrays and the cost caches the maze search prices steps
    from (the state the windows declaration is about) log reads and
    writes; capacity and history arrays (shared, frozen between
    batches) log reads and reject writes.  After the net is routed,
    :meth:`verify` checks every demand and cache access fell inside
    the declared A* windows.
    """

    def __init__(self, base: GlobalGraph) -> None:
        super().__init__(base)
        self.demand_accesses: set[tuple[str, int, int]] = set()
        self.shared_accesses: set[tuple[str, int, int]] = set()
        self.h_demand = _AuditedArray(
            self.h_demand, "h", self.demand_accesses, shared=False
        )
        self.v_demand = _AuditedArray(
            self.v_demand, "v", self.demand_accesses, shared=False
        )
        self.vertex_demand = _AuditedArray(
            self.vertex_demand, "vertex", self.demand_accesses, shared=False
        )
        self.h_capacity = _AuditedArray(
            self.h_capacity, "h", self.shared_accesses, shared=True
        )
        self.v_capacity = _AuditedArray(
            self.v_capacity, "v", self.shared_accesses, shared=True
        )
        self.vertex_capacity = _AuditedArray(
            self.vertex_capacity, "vertex", self.shared_accesses, shared=True
        )
        self.h_history = _AuditedArray(
            self.h_history, "h", self.shared_accesses, shared=True
        )
        self.v_history = _AuditedArray(
            self.v_history, "v", self.shared_accesses, shared=True
        )
        self.vertex_history = _AuditedArray(
            self.vertex_history, "vertex", self.shared_accesses, shared=True
        )
        # Cache cells are logged under the demand kind they price, so
        # verify() maps them to tiles exactly like demand cells.
        self._h_cost = self._audited_rows(self._h_cost, "h")
        self._v_cost = self._audited_rows(self._v_cost, "v")
        self._v_price = self._audited_rows(self._v_price, "vertex")

    def _audited_rows(self, rows: list[list[float]], kind: str) -> list:
        return [
            _AuditedCacheRow(row, kind, i, self.demand_accesses)
            for i, row in enumerate(rows)
        ]

    @staticmethod
    def _tiles_of(access: tuple[str, int, int]) -> Iterator[tuple[int, int]]:
        """Tiles whose state one audited cell access observes."""
        kind, i, j = access
        yield (i, j)
        if kind == "h":
            yield (i + 1, j)
        elif kind == "v":
            yield (i, j + 1)

    def verify(
        self,
        windows: Iterable[Rect],
        stats: Optional[dict[str, float]] = None,
    ) -> None:
        """Check every demand and cache access lies inside a declared window.

        Args:
            windows: the net's declared read footprint (the A* windows
                the router recorded *before* each search).
            stats: counter sink; ``sanitize_cells_checked`` and
                ``sanitize_nets_checked`` are accumulated into it.

        Raises:
            SanitizerViolation: a demand or cost-cache cell outside
                every declared window was read or written.
        """
        rects = list(windows)

        def covered(tile: tuple[int, int]) -> bool:
            return any(
                lo_x <= tile[0] <= hi_x and lo_y <= tile[1] <= hi_y
                for lo_x, lo_y, hi_x, hi_y in rects
            )

        for access in sorted(self.demand_accesses):
            for tile in self._tiles_of(access):
                if not covered(tile):
                    kind, i, j = access
                    raise SanitizerViolation(
                        f"undeclared demand access: {kind!r} cell "
                        f"({i}, {j}) touches tile {tile} outside all "
                        f"{len(rects)} declared A* window(s) — the "
                        "merge loop's conflict check would not see "
                        "this read"
                    )
        if stats is not None:
            stats["sanitize_cells_checked"] = stats.get(
                "sanitize_cells_checked", 0
            ) + len(self.demand_accesses)
            stats["sanitize_nets_checked"] = (
                stats.get("sanitize_nets_checked", 0) + 1
            )


# ======================================================================
# Detailed routing: guarded base ownership + frozen pin set
# ======================================================================
class _GuardedBaseDict:
    """The overlay's view of the live ownership dict, read-audited.

    Legitimate reads arrive through :meth:`_OwnerOverlay.get`, which
    records the node in the declared read set *before* consulting the
    base — so any base read of an undeclared node is, by construction,
    a code path bypassing the overlay.  All mutation is rejected: the
    live grid is frozen while a batch is in flight.
    """

    __slots__ = ("_base", "_declared_reads", "reads_checked")

    def __init__(
        self, base: dict[Node, str], declared_reads: set[Node]
    ) -> None:
        self._base = base
        self._declared_reads = declared_reads
        self.reads_checked = 0

    def _check(self, node: Node) -> None:
        if node not in self._declared_reads:
            raise SanitizerViolation(
                f"base ownership read of {node} bypassed the overlay: "
                "the node is missing from the declared read footprint"
            )
        self.reads_checked += 1

    def get(
        self, node: Node, default: Optional[str] = None
    ) -> Optional[str]:
        self._check(node)
        return self._base.get(node, default)

    def __getitem__(self, node: Node) -> str:
        self._check(node)
        return self._base[node]

    def __contains__(self, node: Node) -> bool:
        self._check(node)
        return node in self._base

    def _reject_write(self, *_args: object) -> None:
        raise SanitizerViolation(
            "write to the live ownership dict during speculation: all "
            "writes must go through the overlay delta"
        )

    __setitem__ = _reject_write
    __delitem__ = _reject_write
    pop = _reject_write
    popitem = _reject_write
    clear = _reject_write
    update = _reject_write
    setdefault = _reject_write


class _FrozenPins:
    """The shared pin set, readable but immutable during speculation."""

    __slots__ = ("_pins", "reads_checked")

    def __init__(self, pins: set[Node]) -> None:
        self._pins = pins
        self.reads_checked = 0

    def __contains__(self, node: Node) -> bool:
        self.reads_checked += 1
        return node in self._pins

    def __iter__(self) -> Iterator[Node]:
        return iter(self._pins)

    def __len__(self) -> int:
        return len(self._pins)

    def _reject_write(self, *_args: object) -> None:
        raise SanitizerViolation(
            "pin-set mutation during speculation: pins are registered "
            "at grid build time and frozen while batches are in flight"
        )

    add = _reject_write
    discard = _reject_write
    remove = _reject_write
    clear = _reject_write
    update = _reject_write


class _GuardedNodeArray:
    """A base grid's flat per-node array, read-audited by node id.

    Python code reading the ownership-id array or the pin mask of a
    sanitized overlay must have logged the id in ``_reads_idx`` first;
    any other read is a code path bypassing the footprint.  (The
    compiled search reads the real buffers; the shadow oracle audits
    it.)  All mutation is rejected: the live grid is frozen while a
    batch is in flight.
    """

    __slots__ = ("_array", "_declared", "_what", "_decode", "reads_checked")

    def __init__(
        self,
        array: Sequence[int],
        declared: set[int],
        what: str,
        decode: Callable[[int], Node],
    ) -> None:
        self._array = array
        self._declared = declared
        self._what = what
        self._decode = decode
        self.reads_checked = 0

    def __getitem__(self, idx: int) -> int:
        if idx not in self._declared:
            raise SanitizerViolation(
                f"base {self._what} read of {self._decode(idx)} bypassed "
                "the overlay: the node is missing from the declared read "
                "footprint"
            )
        self.reads_checked += 1
        return self._array[idx]

    def __len__(self) -> int:
        return len(self._array)

    def __setitem__(self, idx: int, value: int) -> None:
        raise SanitizerViolation(
            f"write to the live {self._what} array at "
            f"{self._decode(idx)} during speculation: all writes must "
            "go through the overlay delta"
        )


class _SanitizedOwnerOverlay(_OwnerOverlay):
    """An :class:`_OwnerOverlay` whose base pointer is guarded."""

    __slots__ = ("guard",)

    def __init__(self, base: DetailedGrid) -> None:
        super().__init__(base)
        self.guard = _GuardedBaseDict(base._owner, self.reads)
        self._base = self.guard


class SanitizedGridOverlay(GridOverlay):
    """A :class:`GridOverlay` that audits shared-state access.

    Base-ownership reads must be preceded by footprint recording on
    both Python surfaces (the ``_owner`` dict, and the flat id array
    and pin mask against ``_reads_idx``).  Searches run the compiled
    kernel on the real buffers, like production; the shadow oracle
    then replays each one with the reference heap loop on the same
    pre-search state, and any path, counter or read-footprint
    difference raises :class:`SanitizerViolation`.  The live ownership
    dict, the id array, the pin mask and the shared pin set reject
    writes, and :meth:`verify` re-checks the buffered delta against
    the declared write set.
    """

    def __init__(self, base: DetailedGrid) -> None:
        super().__init__(base)
        self._owner = _SanitizedOwnerOverlay(base)
        self._local_ids = self._owner.local_ids
        self._pins = _FrozenPins(base._pins)
        reads_idx = self._reads_idx
        assert reads_idx is not None
        self._id_guard = _GuardedNodeArray(
            base._owner_ids, reads_idx, "ownership-id", self._decode
        )
        self._pin_guard = _GuardedNodeArray(
            base._pin_mask, reads_idx, "pin-mask", self._decode
        )
        self._owner_ids = self._id_guard  # type: ignore[assignment]
        self._pin_mask = self._pin_guard  # type: ignore[assignment]
        self._base_grid = base
        self._oracle_reads_checked = 0  # kernel reads the oracle confirmed

    def _kernel_search(
        self, lib: kernel.Kernel, net: str, sources: set[Node],
        targets: set[Node], window: tuple[int, int, int, int],
        expansion_limit: int, blocked: Optional[set[Node]],
        foreign_penalty: Optional[float],
    ) -> kernel.SearchResult:
        args = (net, sources, targets, window, expansion_limit, blocked,
                foreign_penalty)
        result = super()._kernel_search(lib, *args)
        # A kernel search has no side effect until it is committed, so
        # a twin overlay replaying it sees exactly the kernel's state.
        owner = self._owner
        shadow = GridOverlay(self._base_grid)
        twin = shadow._owner = _SanitizedOwnerOverlay(self._base_grid)
        twin.local, twin.local_ids = owner.local, owner.local_ids
        twin._extra_ids = owner._extra_ids
        stats: dict[str, float] = {}
        path = reference_heap_loop(shadow, *args, stats, True)
        decode = self._decode
        kernel_path = None if result.path is None else [decode(i) for i in result.path]
        compared = {
            "path": (kernel_path, path),
            "astar_expansions": (result.expansions, stats["astar_expansions"]),
            "cost_evaluations": (result.evaluations, shadow.cost_evaluations),
            "perf_heap_pops": (result.pops, stats["perf_heap_pops"]),
            "perf_heap_pushes": (result.pops + result.heap_left,
                                 stats["perf_heap_pushes"]),
            "read footprint": ({decode(i) for i in result.reads}, twin.reads),
        }
        for what, (got, want) in compared.items():
            if got != want:
                raise SanitizerViolation(
                    f"detailed search kernel diverged from the reference "
                    f"search for net {net!r} on its {what}: kernel "
                    f"{got!r:.160} != reference {want!r:.160}"
                )
        self._oracle_reads_checked += len(result.reads)
        return result

    def verify(self, stats: Optional[dict[str, float]] = None) -> None:
        """Check the buffered delta matches the declared footprint.

        Args:
            stats: counter sink; ``sanitize_nodes_checked`` and
                ``sanitize_nets_checked`` are accumulated into it.

        Raises:
            SanitizerViolation: a buffered write is missing from the
                declared write set.
        """
        owner = self._owner
        undeclared = set(owner.local) - owner.writes
        if undeclared:
            node = sorted(undeclared)[0]
            raise SanitizerViolation(
                f"buffered ownership write to {node} is missing from "
                f"the declared write footprint ({len(undeclared)} "
                "undeclared node(s) total)"
            )
        if stats is not None:
            checked = (
                owner.guard.reads_checked
                + self._pins.reads_checked
                + self._id_guard.reads_checked
                + self._pin_guard.reads_checked
                + self._oracle_reads_checked
                + len(owner.writes)
            )
            stats["sanitize_nodes_checked"] = (
                stats.get("sanitize_nodes_checked", 0) + checked
            )
            stats["sanitize_nets_checked"] = (
                stats.get("sanitize_nets_checked", 0) + 1
            )
