"""Benchmark-side spans around the routing stages' public entry points.

The traced run patches, for its duration only:

* ``GlobalRouter.route`` and ``DetailedRouter.route`` at class level;
* ``assign_layers``, ``assign_tracks`` and ``evaluate`` as bound in
  ``repro.core.flow`` (the flow calls them through those names).

Each call records a span (name, start, end, parent, request) in memory;
:meth:`SpanRecorder.save` writes them out once the run has ended.  A
layer's self time is its span minus the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections.abc import Iterator
from pathlib import Path
from typing import Any, Callable, Optional

import repro.core.flow as flow_module
from repro.detailed import DetailedRouter
from repro.globalroute import GlobalRouter

#: Span names of the wrapped layers.
GLOBAL, DETAILED = "globalroute", "detailed"
LAYERS, TRACKS, EVAL = "assign.layers", "assign.tracks", "eval"
ROOT = "route"


class SpanRecorder:
    """In-memory span log with a parent stack."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, request id]
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.request = 0

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _request in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        totals: dict[str, float] = {}
        for index, (name, start, end, _parent, _request) in enumerate(self.spans):
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(index, [])):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "request": r}
            for n, s, e, p, r in self.spans
        ]
        path.write_text(json.dumps(rows))


def _wrap(recorder: SpanRecorder, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with recorder.span(name):
            return func(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrumented(recorder: Optional[SpanRecorder]) -> Iterator[None]:
    """Install the stage wrappers while the block runs (no-op for ``None``)."""
    if recorder is None:
        yield
        return
    patches = [
        (GlobalRouter, "route", GLOBAL),
        (DetailedRouter, "route", DETAILED),
        (flow_module, "assign_layers", LAYERS),
        (flow_module, "assign_tracks", TRACKS),
        (flow_module, "evaluate", EVAL),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for (owner, attr, name), (_, _, original) in zip(patches, originals):
            setattr(owner, attr, _wrap(recorder, name, original))
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
