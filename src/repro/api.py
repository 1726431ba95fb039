"""Stable public facade of the reproduction.

Everything a downstream user needs lives here under one import path::

    from repro.api import RouterConfig, StitchAwareRouter, route

    result = route(design, RouterConfig(workers=2))
    print(result.report.stitch_line_histogram())

The facade is the *compatibility contract*: names exported here keep
working across refactors, while the deep module layout
(``repro.core.flow``, ``repro.detailed`` and friends) remains free to
move.  The deep modules themselves stay importable for subclassing
and instrumentation, without a stability promise.  A name removed from
this facade first spends one release emitting a
:class:`DeprecationWarning`: ``Engine``, ``resolve_engine`` and
``RouterConfig(engine=...)`` are in that release now — the router has
one engine, so they select nothing.

Heavier analysis entry points (:func:`~repro.analysis.audit_solution`,
:func:`~repro.analysis.lint_paths`) are re-exported lazily so that
``import repro.api`` stays light.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from .config import (
    DEFAULT_CONFIG,
    ColoringMethod,
    Engine,
    RouterConfig,
    TrackMethod,
    benchmark_scale,
    resolve_engine,
)
from .core.flow import BaselineRouter, FlowResult, StitchAwareRouter
from .eval import RoutingReport
from .layout import Design
from .observe import RunTrace, Tracer

if TYPE_CHECKING:  # lazy re-exports, resolved by __getattr__ at runtime
    from .analysis import AuditReport, audit_solution, lint_paths

__all__ = [
    "AuditReport",
    "BaselineRouter",
    "ColoringMethod",
    "DEFAULT_CONFIG",
    "Design",
    "Engine",
    "FlowResult",
    "RouterConfig",
    "RoutingReport",
    "RunTrace",
    "StitchAwareRouter",
    "TrackMethod",
    "Tracer",
    "audit_solution",
    "benchmark_scale",
    "lint_paths",
    "resolve_engine",
    "route",
]

#: Names served lazily from :mod:`repro.analysis`.
_LAZY_ANALYSIS = frozenset({"AuditReport", "audit_solution", "lint_paths"})


def __getattr__(name: str) -> Any:
    if name in _LAZY_ANALYSIS:
        from . import analysis

        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def route(
    design: Design,
    config: Optional[RouterConfig] = None,
    *,
    tracer: Optional[Tracer] = None,
) -> FlowResult:
    """Route ``design`` with the stitch-aware flow in one call.

    Convenience wrapper over
    ``StitchAwareRouter(config=config).route(design)`` — the flow all
    of the paper's result tables use.  ``config`` defaults to
    :data:`DEFAULT_CONFIG`; pass ``RouterConfig(workers=N)`` to route
    net batches on a worker pool.
    """
    return StitchAwareRouter(config=config).route(design, tracer=tracer)
