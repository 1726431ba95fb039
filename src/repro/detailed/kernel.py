"""Build, load and call the compiled detailed A* kernel (``astar_kernel.c``).

The object is built with the system C compiler on the first search —
never at import — cached under a key of source, flags and Python ABI,
and called through :class:`ctypes.CDLL`, which releases the GIL.  When
it cannot be built or loaded, :func:`load` logs one line and returns
``None``, and searches fall back to the Python reference loop.  See
``docs/performance.md``.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import threading
from array import array
from collections.abc import Sequence
from pathlib import Path
from typing import NamedTuple, Optional, Union

logger = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("astar_kernel.c")

#: No fused multiply-adds, reassociation or host-specific code: every
#: float sum must round exactly like the Python reference.
CFLAGS = ("-O2", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")

#: Environment override for the build-cache directory.
CACHE_ENV = "REPRO_KERNEL_CACHE"

_I64, _PTR = ctypes.c_int64, ctypes.c_void_p


class KernelUnavailable(RuntimeError):
    """The compiled kernel could not be built."""


class SearchResult(NamedTuple):
    """Path ids (``None``: no target reached), counters (``pushes == pops
    + heap_left``) and, on overlays, every id whose ownership was read."""

    path: Optional[list[int]]
    expansions: int
    evaluations: int
    pops: int
    heap_left: int
    reads: Sequence[int]


class _Results(ctypes.Structure):
    """The leading (result) fields of the kernel's ``Workspace``."""

    _fields_ = [
        ("path", ctypes.POINTER(_I64)), ("path_len", _I64),
        ("reads", ctypes.POINTER(_I64)), ("reads_len", _I64),
    ] + [(name, _I64) for name in ("expansions", "evaluations", "pops", "heap_left")]


class GridView:
    """The kernel's ``Grid`` struct over one grid's buffers (no library
    load).  The exports pin the buffers: they can no longer resize."""

    __slots__ = ("_args", "_keep", "address")

    class _Grid(ctypes.Structure):
        _fields_ = [
            (name, _PTR)
            for name in ("step", "owner", "pin", "via_extra", "on_line", "vertical")
        ] + [("width", _I64), ("height", _I64), ("layers", _I64)]

    def __init__(self, buffers: Sequence[Union[array, bytearray]], *dims: int) -> None:
        exports = [
            (ctypes.c_char * memoryview(buf).nbytes).from_buffer(buf) for buf in buffers
        ]
        struct = self._Grid(*(ctypes.addressof(e) for e in exports), *dims)
        self._args = (buffers, *dims)
        self._keep = (exports, struct)
        self.address = ctypes.addressof(struct)

    def __reduce__(self) -> tuple:
        # For spawned workers: the pickle memo shares the grid's buffers.
        return (GridView, self._args)


class _Workspace:
    """One thread's kernel scratch (id table, heap, result buffers)."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self.ptr = lib.repro_workspace_new()
        if not self.ptr:
            raise MemoryError("cannot allocate a detailed A* workspace")
        self.results = _Results.from_address(self.ptr)
        self._free = lib.repro_workspace_free

    def __del__(self) -> None:
        self._free(self.ptr)


class Kernel:
    """The loaded shared object, with one workspace per thread."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        self._local = threading.local()
        lib.repro_workspace_new.argtypes, lib.repro_workspace_new.restype = [], _PTR
        lib.repro_workspace_free.argtypes, lib.repro_workspace_free.restype = [_PTR], None
        self._astar = lib.repro_astar
        self._astar.restype = ctypes.c_int
        self._astar.argtypes = [
            _PTR, _PTR,  # grid, workspace
            _PTR, _I64, _PTR, _I64, _PTR, _I64,  # sources, targets, blocked
            _PTR, _PTR, _I64,  # overlay-buffered ids, their owners
            ctypes.c_int, _I64,  # log_reads, net_id
            ctypes.c_int, ctypes.c_double,  # has_penalty, penalty
            _I64, _I64, _I64, _I64,  # window
            _I64, ctypes.c_double,  # expansion limit, heuristic weight
        ]

    def search(
        self, grid: GridView, sources: array, targets: array,
        blocked: array, local_ids: Optional[dict[int, int]],
        net_id: int, foreign_penalty: Optional[float],
        window: tuple[int, int, int, int], expansion_limit: int, weight: float,
    ) -> SearchResult:
        """Run one search; ``local_ids`` (an overlay's buffered id map,
        ``None`` on the base grid) also turns on read logging."""
        ws = getattr(self._local, "ws", None)
        if ws is None:
            ws = self._local.ws = _Workspace(self._lib)
        local = local_ids or {}
        keys, vals = array("q", local), array("q", local.values())
        # buffer_info() is (address, length): each splat passes both.
        status = self._astar(
            grid.address, ws.ptr,
            *sources.buffer_info(), *targets.buffer_info(), *blocked.buffer_info(),
            keys.buffer_info()[0], vals.buffer_info()[0], len(keys),
            local_ids is not None, net_id,
            foreign_penalty is not None, foreign_penalty or 0.0,
            *window, expansion_limit, weight,
        )
        if status == -2:
            raise ValueError("a search node lies outside the grid")
        if status < 0:
            raise MemoryError("the detailed A* kernel ran out of memory")
        res = ws.results
        return SearchResult(
            res.path[: res.path_len] if status else None,
            res.expansions, res.evaluations, res.pops, res.heap_left,
            res.reads[: res.reads_len] if local_ids is not None else (),
        )


def cache_dir() -> Path:
    """``$REPRO_KERNEL_CACHE``, else the per-user cache (one build per
    host, shared by checkouts), else a per-user temp directory."""
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    user = Path(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"))
    if user.is_absolute() and os.access(user if user.exists() else user.parent, os.W_OK):
        return user / "repro-kernels"
    uid = getattr(os, "getuid", lambda: "user")()
    return Path(tempfile.gettempdir()) / f"repro-kernels-{uid}"


def cache_key() -> str:
    """Hash of the source, the flags and the Python ABI."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    abi = (sys.implementation.cache_tag, sysconfig.get_config_var("SOABI"))
    digest.update(repr((CFLAGS, abi, platform.machine())).encode())
    return digest.hexdigest()[:16]


def find_compiler() -> Optional[str]:
    """Path of the C compiler: ``$CC``, else ``gcc``, else ``cc``."""
    for name in (os.environ.get("CC"), "gcc", "cc"):
        found = shutil.which(name) if name else None
        if found:
            return found
    return None


def build(target: Path) -> None:
    """Compile the kernel to ``target`` (temp file, then atomic rename)."""
    compiler = find_compiler()
    if compiler is None:
        raise KernelUnavailable("no C compiler found (set CC or install gcc)")
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.stem, suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, *CFLAGS, "-o", tmp, str(SOURCE)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            first = (proc.stderr.strip().splitlines() or ["no output"])[0]
            raise KernelUnavailable(f"{compiler} failed: {first}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class _Loader:
    """One load attempt per process; the kernel (or ``None``) is kept."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.tried = False
        self.kernel: Optional[Kernel] = None

    def get(self) -> Optional[Kernel]:
        with self.lock:
            if not self.tried:
                try:
                    target = cache_dir() / f"astar_kernel-{cache_key()}.so"
                    if not target.exists():
                        build(target)
                    self.kernel = Kernel(ctypes.CDLL(str(target)))
                except (KernelUnavailable, OSError, subprocess.SubprocessError) as exc:
                    reason = (str(exc).splitlines() or [type(exc).__name__])[0]
                    logger.warning("detailed A* kernel unavailable (%s); searching "
                                   "with the Python reference loop", reason)
                self.tried = True
        return self.kernel


_LOADER = _Loader()


def load() -> Optional[Kernel]:
    """The compiled kernel, built on first use; ``None`` if unavailable."""
    loader = _LOADER
    return loader.kernel if loader.tried else loader.get()
