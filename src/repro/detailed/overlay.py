"""Speculative-routing overlay for the detailed routing grid.

A worker thread in the parallel net-batch router (see
:mod:`repro.parallel`) connects its net against a
:class:`GridOverlay`: reads see the grid as of the batch barrier plus
the net's own writes, writes are buffered as a replayable delta, and
the exact read/write node sets are captured so the merge loop can
prove — net by net, in canonical serial order — that the speculative
result equals the serial one.  A net whose reads touch an earlier
batch-mate's writes is discarded and re-routed on the live grid.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.context import context
from .grid import DetailedGrid, Node


class _OwnerOverlay:
    """Ownership mapping that shadows a grid's ``_owner`` dict and logs access.

    Presents the ``get`` / ``__setitem__`` / ``__delitem__`` surface
    :class:`DetailedGrid` uses on its ``_owner`` dict.  Deletions are
    tombstoned so a released base-owned node reads back as free.
    Every buffered write is mirrored as a net id into ``local_ids``
    (``RELEASED`` for a tombstone), which the indexed search consults
    before falling back to the base grid's id array — the exact view
    the dict surface presents.
    """

    __slots__ = (
        "_base",
        "local",
        "reads",
        "writes",
        "local_ids",
        "_grid_ids",
        "_extra_ids",
        "_encode_node",
    )

    #: Marks a node released in the overlay while still set in base.
    TOMBSTONE = "\0released"

    #: Integer twin of :attr:`TOMBSTONE` in ``local_ids``.
    RELEASED = -1

    def __init__(self, base: DetailedGrid) -> None:
        self._base = base._owner
        self._encode_node = base._encode
        self._grid_ids = base._net_ids
        #: node -> net name, or TOMBSTONE for overlay-released nodes.
        self.local: dict[Node, str] = {}
        #: every node whose ownership the worker observed.
        self.reads: set[Node] = set()
        #: every node the worker wrote (claimed or released).
        self.writes: set[Node] = set()
        #: node id -> net id, or RELEASED (mirror of ``local``).
        self.local_ids: dict[int, int] = {}
        #: Ids minted locally for names outside the preregistered
        #: netlist (defensive; searches only route netlist nets).
        #: Negative below the tombstone so they collide with nothing,
        #: and local so worker threads never grow the shared registry.
        self._extra_ids: dict[str, int] = {}

    def id_of(self, net: str) -> int:
        """Ownership-array id of ``net`` without touching the registry."""
        nid = self._grid_ids.get(net)
        if nid is not None:
            return nid
        extra = self._extra_ids.get(net)
        if extra is None:
            extra = -2 - len(self._extra_ids)
            self._extra_ids[net] = extra
        return extra

    def get(self, node: Node, default: Optional[str] = None) -> Optional[str]:
        self.reads.add(node)
        value = self.local.get(node)
        if value is None:
            return self._base.get(node, default)
        if value is _OwnerOverlay.TOMBSTONE:
            return default
        return value

    def __setitem__(self, node: Node, net: str) -> None:
        self.writes.add(node)
        self.local[node] = net
        self.local_ids[self._encode_node(node)] = self.id_of(net)

    def __delitem__(self, node: Node) -> None:
        self.writes.add(node)
        self.local[node] = _OwnerOverlay.TOMBSTONE
        self.local_ids[self._encode_node(node)] = _OwnerOverlay.RELEASED


class GridOverlay(DetailedGrid):
    """A :class:`DetailedGrid` whose ownership writes are buffered.

    Geometry caches, the pin set, the base ownership dict, the flat
    step/via/pin/id arrays and the kernel's view of them are shared by
    reference (all frozen while a batch is in flight); every ownership
    access goes through an :class:`_OwnerOverlay`, and every id the
    search kernel consults is logged in ``_reads_idx``, giving the
    merge loop exact read/write node sets.  ``cost_evaluations``
    starts at zero so accepted counts merge additively.
    """

    def __init__(self, base: DetailedGrid) -> None:
        # Deliberately skips DetailedGrid.__init__ (per-x precomputes
        # and the flat arrays are borrowed, not rebuilt).
        self.design = base.design
        self.config = base.config
        self.tech = base.tech
        self.stitches = base.stitches
        self.stitch_aware = base.stitch_aware
        self._pins = base._pins
        self._on_line = base._on_line
        self._unfriendly = base._unfriendly
        self._escape = base._escape
        self._vertical = base._vertical
        self._num_layers = base._num_layers
        self._width = base._width
        self._height = base._height
        self._hl = base._hl
        self._step = base._step
        self._via_extra = base._via_extra
        self._owner_ids = base._owner_ids
        self._pin_mask = base._pin_mask
        self._kernel_view = base._kernel_view
        self.cost_evaluations = 0
        self._owner = _OwnerOverlay(base)
        self._local_ids = self._owner.local_ids
        self._reads_idx = set()

    def _net_id(self, net: str) -> int:
        return self._owner.id_of(net)

    def _mirror_owner(self, node: Node, net: Optional[str]) -> None:
        # The owner overlay already mirrored the buffered write into
        # ``local_ids``; the shared base arrays must stay untouched.
        pass

    # -- speculative-result plumbing -----------------------------------
    @property
    def read_nodes(self) -> set[Node]:
        """Nodes whose ownership this overlay observed (both surfaces)."""
        decode = self._decode
        reads_idx = self._reads_idx
        assert reads_idx is not None
        return self._owner.reads | {decode(i) for i in reads_idx}

    @property
    def write_nodes(self) -> set[Node]:
        """Nodes this overlay wrote (claimed or released)."""
        return self._owner.writes

    @context("canonical", reads=("grid.owner",), writes=("grid.owner",))
    def apply_to(self, base: DetailedGrid, net: str) -> None:
        """Replay the buffered ownership delta onto ``base``.

        Valid only when the merge loop has proven the overlay conflict
        free; every write then lands exactly as the serial router's
        would have.  The delta holds each written node's *final*
        speculative state: claims replay through
        :meth:`DetailedGrid.force_occupy` (evicting other nets' wire
        exactly as negotiated rip-up did speculatively), and
        tombstones free the node *whatever base currently says* — a
        node the search force-claimed from a foreign net and then
        trimmed away ends up free in the serial run, even though the
        base grid still shows the evicted owner.
        """
        for node, value in self._owner.local.items():
            if value is _OwnerOverlay.TOMBSTONE:
                current = base.owner(node)
                if current is not None:
                    base.release(node, current)
            else:
                base.force_occupy(node, value)
        base.cost_evaluations += self.cost_evaluations
