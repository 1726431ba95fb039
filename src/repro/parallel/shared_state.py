"""Shared-memory state transport for the process-pool backend.

The thread pool shares routing state for free; a process pool must
ship it.  :class:`SharedStateChannel` is the one-way channel the
routers use: the submitting process *publishes* the mutable stage
state before each pooled batch, workers *sync* lazily at their next
task.  Three ``multiprocessing.shared_memory`` segments back it:

* a fixed control block (epoch, journal length, journal generation,
  journal capacity) — the only words workers poll;
* one packed array block holding every exported numpy array
  (demand/history grids, global cost caches) at fixed offsets,
  overwritten in place on publish so workers read it zero-copy;
* a growable journal block of length-prefixed binary frames (the
  detailed grid's ownership deltas), appended on publish and replayed
  by workers from their last consumed offset.

Publishes only ever happen *between* pooled batches, while no worker
task is in flight — so workers never observe a torn write.  The
channel is deliberately not a lock-free structure; it is a batch-
synchronous mailbox.

Every segment created here is tracked in a module-level registry so
tests can assert the success *and* error paths leave nothing mapped
(:func:`active_segments`).  Worker-side attachments unregister from
``multiprocessing.resource_tracker`` immediately: the submitting
process owns the lifecycle, and a worker exiting must never reap (or
warn about) segments its parent is still using.
"""

from __future__ import annotations

import os
import itertools
import struct
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from collections.abc import Iterator, Mapping, Sequence
from typing import Optional

import numpy as np

from ..analysis.context import context

#: Control words: epoch, journal bytes used, journal generation,
#: journal capacity.  Little-endian int64 each.
_CTL = struct.Struct("<qqqq")

#: Frame header: payload byte length.
_FRAME = struct.Struct("<q")

_INITIAL_JOURNAL_CAPACITY = 1 << 16

#: Names of every live segment created by this process (owner side).
_LIVE_SEGMENTS: set[str] = set()

_CHANNEL_IDS = itertools.count()


def active_segments() -> frozenset[str]:
    """Names of shared-memory segments this process still owns.

    Empty whenever no :class:`SharedStateChannel` is live — the leak
    check the lifecycle tests assert on success and error paths.
    """
    return frozenset(_LIVE_SEGMENTS)


@dataclass(frozen=True)
class SharedArraySpec:
    """Shape/dtype contract for one exported array.

    The spec travels to workers inside the channel handle; both sides
    derive identical offsets from the spec sequence, so no offset
    table is ever transmitted.
    """

    key: str
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


#: What a worker needs to attach: the segment-name prefix + the specs.
ChannelHandle = tuple[str, tuple[SharedArraySpec, ...]]


def _create_segment(name: str, size: int) -> shared_memory.SharedMemory:
    segment = shared_memory.SharedMemory(name=name, create=True, size=size)
    _LIVE_SEGMENTS.add(name)
    return segment


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    # The attaching process must not adopt cleanup responsibility:
    # until Python 3.13 (``track=False``) the stdlib registers every
    # attachment with the shared resource tracker, and because the
    # tracker keeps one cache entry per name, a worker's registration
    # collides with the owner's — the first unregister (from either
    # side) orphans the other.  Ownership stays with the creating
    # process, so attachments must not register at all.
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        pass
    register = resource_tracker.register
    resource_tracker.register = lambda *_args, **_kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register


class SharedStateChannel:
    """Batch-synchronous publish/sync mailbox over shared memory.

    Build with :meth:`create` in the submitting process, ship
    :attr:`handle` through the pool initializer, and :meth:`attach` in
    each worker.  The owner calls :meth:`publish` between batches;
    workers call :meth:`sync` at each task and apply whatever arrived
    since their last look.
    """

    def __init__(
        self,
        prefix: str,
        specs: tuple[SharedArraySpec, ...],
        owner: bool,
    ) -> None:
        self.prefix = prefix
        self.specs = specs
        self.owner = owner
        #: Publishes performed (owner side) — ``parallel_ipc_publishes``.
        self.publishes = 0
        #: Bytes written by publishes — ``parallel_ipc_publish_bytes``.
        self.published_bytes = 0
        self._closed = False
        self._generation = 0
        # Consumer cursor (worker side): last seen epoch + journal offset.
        self._seen_epoch = 0
        self._consumed = 0
        self._ctl: Optional[shared_memory.SharedMemory] = None
        self._arr: Optional[shared_memory.SharedMemory] = None
        self._jrn: Optional[shared_memory.SharedMemory] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    @context("canonical")
    def create(
        cls, tag: str, specs: Sequence[SharedArraySpec]
    ) -> "SharedStateChannel":
        """Owner-side constructor: allocate the backing segments."""
        prefix = f"repro-{tag}-{os.getpid()}-{next(_CHANNEL_IDS)}"
        channel = cls(prefix, tuple(specs), owner=True)
        try:
            channel._ctl = _create_segment(f"{prefix}-ctl", _CTL.size)
            channel._ctl.buf[: _CTL.size] = _CTL.pack(
                0, 0, 0, _INITIAL_JOURNAL_CAPACITY
            )
            total = sum(spec.nbytes for spec in channel.specs)
            if total:
                channel._arr = _create_segment(f"{prefix}-arr", total)
            channel._jrn = _create_segment(
                f"{prefix}-jrn0", _INITIAL_JOURNAL_CAPACITY
            )
        except Exception:
            channel.unlink()
            raise
        return channel

    @classmethod
    @context("worker-process", reads=("channel",))
    def attach(cls, handle: ChannelHandle) -> "SharedStateChannel":
        """Worker-side constructor: map the owner's segments."""
        prefix, specs = handle
        channel = cls(prefix, tuple(specs), owner=False)
        channel._ctl = _attach_segment(f"{prefix}-ctl")
        if sum(spec.nbytes for spec in specs):
            channel._arr = _attach_segment(f"{prefix}-arr")
        channel._jrn = _attach_segment(f"{prefix}-jrn0")
        return channel

    @property
    def handle(self) -> ChannelHandle:
        """What :meth:`attach` needs on the worker side."""
        return self.prefix, self.specs

    # ------------------------------------------------------------------
    # Array block layout (identical derivation on both sides)
    # ------------------------------------------------------------------
    def _array_views(self) -> dict[str, np.ndarray]:
        assert self._arr is not None
        views: dict[str, np.ndarray] = {}
        offset = 0
        for spec in self.specs:
            views[spec.key] = np.ndarray(
                spec.shape,
                dtype=np.dtype(spec.dtype),
                buffer=self._arr.buf,
                offset=offset,
            )
            offset += spec.nbytes
        return views

    # ------------------------------------------------------------------
    # Owner side
    # ------------------------------------------------------------------
    @context("canonical", writes=("channel",))
    def publish(
        self, arrays: Mapping[str, np.ndarray], frame: bytes = b""
    ) -> int:
        """Overwrite the array block and append one journal frame.

        Must only be called while no worker task is in flight (between
        pooled batches).  Returns the new epoch.
        """
        if not self.owner:
            raise RuntimeError("publish() is owner-side only")
        assert self._ctl is not None
        epoch, used, generation, capacity = _CTL.unpack(
            bytes(self._ctl.buf[: _CTL.size])
        )
        written = 0
        if self._arr is not None:
            for key, view in self._array_views().items():
                np.copyto(view, arrays[key])
                written += view.nbytes
        needed = used + _FRAME.size + len(frame)
        if needed > capacity:
            capacity = self._grow_journal(used, max(capacity * 2, needed))
            generation = self._generation
        assert self._jrn is not None
        self._jrn.buf[used : used + _FRAME.size] = _FRAME.pack(len(frame))
        used += _FRAME.size
        if frame:
            self._jrn.buf[used : used + len(frame)] = frame
            used += len(frame)
        written += _FRAME.size + len(frame)
        epoch += 1
        self._ctl.buf[: _CTL.size] = _CTL.pack(epoch, used, generation, capacity)
        self.publishes += 1
        self.published_bytes += written
        return epoch

    def _grow_journal(self, used: int, capacity: int) -> int:
        """Move the journal to a larger segment (next generation name)."""
        assert self._jrn is not None
        self._generation += 1
        grown = _create_segment(
            f"{self.prefix}-jrn{self._generation}", capacity
        )
        try:
            grown.buf[:used] = self._jrn.buf[:used]
        except Exception:
            grown_name = grown.name
            grown.close()
            self._unlink_segment(grown, grown_name)
            raise
        old_name = self._jrn.name
        self._jrn.close()
        self._unlink_segment(self._jrn, old_name)
        self._jrn = grown
        return capacity

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    @context("worker-process", reads=("channel",))
    def sync(self) -> Optional[tuple[dict[str, np.ndarray], list[bytes]]]:
        """Adopt anything published since the last sync.

        Returns ``None`` when the epoch has not moved; otherwise the
        current array views plus the journal frames appended since the
        previous sync (oldest first).  A worker forked mid-stage sees
        *every* frame on its first sync — journal frames are absolute
        assignments, so replaying a prefix the inherited state already
        contains is idempotent.
        """
        if self.owner:
            raise RuntimeError("sync() is worker-side only")
        assert self._ctl is not None
        epoch, used, generation, _capacity = _CTL.unpack(
            bytes(self._ctl.buf[: _CTL.size])
        )
        if epoch == self._seen_epoch:
            return None
        if generation != self._generation:
            assert self._jrn is not None
            self._jrn.close()
            self._jrn = _attach_segment(f"{self.prefix}-jrn{generation}")
            self._generation = generation
        assert self._jrn is not None
        frames: list[bytes] = []
        offset = self._consumed
        while offset < used:
            (length,) = _FRAME.unpack(
                bytes(self._jrn.buf[offset : offset + _FRAME.size])
            )
            offset += _FRAME.size
            frames.append(bytes(self._jrn.buf[offset : offset + length]))
            offset += length
        self._consumed = offset
        self._seen_epoch = epoch
        arrays = self._array_views() if self._arr is not None else {}
        return arrays, frames

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _unlink_segment(
        self, segment: shared_memory.SharedMemory, name: str
    ) -> None:
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already reaped
            pass
        _LIVE_SEGMENTS.discard(name)

    def _segments(self) -> Iterator[shared_memory.SharedMemory]:
        for segment in (self._ctl, self._arr, self._jrn):
            if segment is not None:
                yield segment

    def close(self) -> None:
        """Unmap this process's views (idempotent).

        The owner also unlinks — owner teardown is total teardown.
        """
        if self._closed:
            return
        self._closed = True
        for segment in self._segments():
            name = segment.name
            segment.close()
            if self.owner:
                self._unlink_segment(segment, name)
        self._ctl = self._arr = self._jrn = None

    def unlink(self) -> None:
        """Owner-side teardown alias (reads as intent at call sites)."""
        self.close()
