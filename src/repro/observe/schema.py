"""Canonical schema registry for every observability name.

Every counter, gauge, span, and progress kind the router can emit is
declared here, once, with its owner stage, backend coverage, and
category.  The registry is the single source of truth that used to be
scattered across ad-hoc lists: the regression gate's ``parallel_*`` /
``perf_*`` / ``stream_*`` strip tuples, the perf-history counter
columns, and the watch monitor's notable-counter picks all derive
from it now, and the static parity analyzer's PAR005 rule fails any
``src`` emission whose name is missing here.

Identity is ``(kind, name)`` — names may repeat across kinds (the
multilevel scheme emits a ``level`` *span* carrying a ``level``
*gauge*) but never within one.  Backend coverage is a set of
executor tags (``serial`` / ``thread`` / ``process``): a metric tagged with a
backend *may* appear under it, and a metric missing one *never* does
(``parallel_ipc_publishes`` carries no ``serial`` or ``thread`` tag —
only the process pool publishes over IPC).  The live-run completeness
test (``tests/observe/test_schema.py``) routes a real circuit under
five configurations and holds every emitted name to its declared
coverage.

Categories partition the vocabulary by contract: ``routing`` metrics
are the deterministic ones every backend must reproduce exactly,
while ``scheduling`` / ``profiling`` / ``streaming`` bookkeeping is
backend- or mode-specific and strippable (see
:func:`strip_prefixes`).  Each strippable category owns a name prefix
and the module refuses to import if any registration strays across
that line — the prefix-based scrub in ``benchmarks/regression.py``
and the category-based view here can never disagree.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

#: The four observability primitives a tracer records.
KINDS = ("counter", "gauge", "span", "progress")

#: Executor backend tags (``RouterConfig.workers`` / ``executor``).
EXECUTOR_BACKENDS = frozenset({"serial", "thread", "process"})

#: Full coverage: emitted under every executor.
ALL_BACKENDS = EXECUTOR_BACKENDS

#: Coverage of workers>1 bookkeeping: no serial runs.
PARALLEL_BACKENDS = frozenset({"thread", "process"})

#: Strippable categories and the name prefix each one owns.  The
#: regression gate scrubs by prefix; the registry enforces at import
#: time that prefix membership and category membership coincide.
CATEGORY_PREFIXES: dict[str, tuple[str, ...]] = {
    "scheduling": ("parallel_",),
    "profiling": ("perf_",),
    "streaming": ("stream_",),
    "sanitize": ("sanitize_",),
}


@dataclasses.dataclass(frozen=True)
class MetricSpec:
    """One registered observability name.

    Attributes:
        name: the emitted name, exactly as it appears in a trace.
        kind: one of :data:`KINDS`.
        stages: owner stages (``global`` / ``detailed`` / ``assign`` /
            ``multilevel`` / ``flow`` / ``observe``).
        backends: tags under which the name may be emitted (subset of
            :data:`ALL_BACKENDS`).
        category: contract family — ``routing`` names are part of the
            deterministic cross-backend surface; prefix-owning
            categories (:data:`CATEGORY_PREFIXES`) are strippable.
        history: 0 for untracked, else the 1-based column position in
            the perf-history rollup (:func:`history_counters`).
        description: one-line meaning, for docs and ``trace show``.
    """

    name: str
    kind: str
    stages: frozenset[str]
    backends: frozenset[str]
    category: str
    history: int = 0
    description: str = ""


_REGISTRY: dict[tuple[str, str], MetricSpec] = {}


def _register(
    name: str,
    kind: str,
    stages: frozenset[str],
    backends: frozenset[str],
    category: str,
    description: str,
    history: int = 0,
) -> None:
    key = (kind, name)
    if kind not in KINDS:
        raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
    if key in _REGISTRY:
        raise ValueError(f"duplicate registration: {kind} {name!r}")
    if not backends <= ALL_BACKENDS:
        raise ValueError(f"unknown backend tag on {kind} {name!r}")
    _REGISTRY[key] = MetricSpec(
        name=name,
        kind=kind,
        stages=frozenset(stages),
        backends=frozenset(backends),
        category=category,
        history=history,
        description=description,
    )


_GLOBAL = frozenset({"global"})
_DETAILED = frozenset({"detailed"})
_BOTH_ROUTE = frozenset({"global", "detailed"})
_ASSIGN = frozenset({"assign"})
_MULTILEVEL = frozenset({"multilevel"})
_FLOW = frozenset({"flow"})
_OBSERVE = frozenset({"observe"})

# -- routing counters: the deterministic cross-backend surface --------
_register(
    "maze_expansions", "counter", _GLOBAL, ALL_BACKENDS, "routing",
    "Tiles popped by the negotiated-congestion maze search.",
    history=1,
)
_register(
    "nets_routed", "counter", _GLOBAL, ALL_BACKENDS, "routing",
    "Nets the global stage connected.",
)
_register(
    "ripup_victims", "counter", _GLOBAL, ALL_BACKENDS, "routing",
    "Nets torn up by global negotiation rounds.",
)
_register(
    "failed_nets", "counter", _BOTH_ROUTE, ALL_BACKENDS, "routing",
    "Nets left unrouted when a stage gave up.",
    history=5,
)
_register(
    "nets_attempted", "counter", _DETAILED, ALL_BACKENDS, "routing",
    "Nets the detailed stage tried to realize.",
)
_register(
    "first_pass_failed", "counter", _DETAILED, ALL_BACKENDS, "routing",
    "Nets whose first detailed pass missed and queued for rip-up.",
)
_register(
    "stitch_cost_evaluations", "counter", _DETAILED, ALL_BACKENDS,
    "routing",
    "Stitch-aware cost terms evaluated during detailed search.",
)
_register(
    "ripup_rounds", "counter", _DETAILED, ALL_BACKENDS, "routing",
    "Detailed rip-up-and-reroute rounds executed.",
    history=4,
)
_register(
    "reroutes", "counter", _DETAILED, ALL_BACKENDS, "routing",
    "Nets rerouted inside detailed rip-up rounds.",
)
_register(
    "astar_searches", "counter", _DETAILED, ALL_BACKENDS, "routing",
    "Windowed A* searches launched by the detailed stage.",
    history=2,
)
_register(
    "astar_expansions", "counter", _DETAILED, ALL_BACKENDS, "routing",
    "Grid nodes expanded across all detailed A* searches.",
    history=3,
)
_register(
    "panels", "counter", _ASSIGN, ALL_BACKENDS, "routing",
    "Track-assignment panels processed.",
)
_register(
    "conflict_vertices", "counter", _ASSIGN, ALL_BACKENDS, "routing",
    "Vertices of the layer-assignment conflict graph.",
)
_register(
    "conflict_edges", "counter", _ASSIGN, ALL_BACKENDS, "routing",
    "Edges of the layer-assignment conflict graph.",
)
_register(
    "flow_augmentations", "counter", _ASSIGN, ALL_BACKENDS, "routing",
    "Augmenting paths pushed by the flow-based coloring.",
)
_register(
    "flow_rounds", "counter", _ASSIGN, ALL_BACKENDS, "routing",
    "Rounds of the flow-based coloring loop.",
)
_register(
    "flow_nodes", "counter", _ASSIGN, ALL_BACKENDS, "routing",
    "Nodes of the min-cost-flow network built by the interval "
    "k-coloring (accumulated per panel; not yet forwarded to spans).",
)
_register(
    "failed_segments", "counter", _ASSIGN, ALL_BACKENDS, "routing",
    "Trunk segments track assignment could not place.",
)
_register(
    "bad_ends", "counter", _ASSIGN, ALL_BACKENDS, "routing",
    "Segment endpoints left off-track after assignment.",
)
_register(
    "track_graph_nodes", "counter", _ASSIGN, ALL_BACKENDS, "routing",
    "Nodes of the track-assignment interval graph.",
)
_register(
    "track_baseline_segments", "counter", _ASSIGN, ALL_BACKENDS,
    "routing",
    "Segments placed by the greedy track-assignment baseline.",
)
_register(
    "track_ilp_variables", "counter", _ASSIGN, ALL_BACKENDS, "routing",
    "Decision variables of the track-assignment ILP.",
)

# -- audit counters (repro audit / --audit flow) ----------------------
_register(
    "audit_nets_checked", "counter", _FLOW, ALL_BACKENDS, "audit",
    "Nets re-verified by the independent solution audit.",
)
_register(
    "audit_findings", "counter", _FLOW, ALL_BACKENDS, "audit",
    "Audit rule violations found.",
)
_register(
    "audit_drift", "counter", _FLOW, ALL_BACKENDS, "audit",
    "Reported counters that disagreed with audit recomputation.",
)

# -- sanitize counters (RouterConfig.sanitize) ------------------------
_register(
    "sanitize_violations", "counter", _BOTH_ROUTE, ALL_BACKENDS,
    "sanitize",
    "Shared-state footprint violations the sanitizer flagged.",
)
_register(
    "sanitize_cells_checked", "counter", _GLOBAL, ALL_BACKENDS,
    "sanitize",
    "Demand and cost-cache cells the global-stage sanitizer checked.",
)
_register(
    "sanitize_nets_checked", "counter", _BOTH_ROUTE, ALL_BACKENDS,
    "sanitize",
    "Nets swept by the overlay sanitizer.",
)
_register(
    "sanitize_nodes_checked", "counter", _DETAILED, ALL_BACKENDS,
    "sanitize",
    "Ownership reads and writes the detailed-stage sanitizer checked.",
)

# -- scheduling bookkeeping (workers > 1; no serial counterpart) ------
_register(
    "parallel_tasks", "counter", _BOTH_ROUTE, PARALLEL_BACKENDS,
    "scheduling",
    "Speculative tasks submitted to the worker pool.",
)
_register(
    "parallel_batches", "counter", _BOTH_ROUTE, PARALLEL_BACKENDS,
    "scheduling",
    "Conflict-free batches executed by the pool.",
)
_register(
    "parallel_conflicts", "counter", _BOTH_ROUTE, PARALLEL_BACKENDS,
    "scheduling",
    "Speculative results discarded and redone serially.",
)
_register(
    "parallel_ipc_publishes", "counter", _BOTH_ROUTE,
    frozenset({"process"}), "scheduling",
    "Shared-memory state publications by the process pool.",
)
_register(
    "parallel_ipc_publish_bytes", "counter", _BOTH_ROUTE,
    frozenset({"process"}), "scheduling",
    "Bytes shipped over shared memory by the process pool.",
)
_register(
    "worker_utilization", "gauge", _BOTH_ROUTE, PARALLEL_BACKENDS,
    "scheduling",
    "Busy fraction of the worker pool over a stage.",
)
_register(
    "parallel_batches_planned", "gauge",
    _BOTH_ROUTE | _MULTILEVEL, PARALLEL_BACKENDS, "scheduling",
    "Batches the conflict-aware planner scheduled.",
)
_register(
    "parallel_max_batch_width", "gauge",
    _BOTH_ROUTE | _MULTILEVEL, PARALLEL_BACKENDS, "scheduling",
    "Widest planned batch (peak speculative parallelism).",
)
_register(
    "parallel_mean_batch_width", "gauge",
    _BOTH_ROUTE | _MULTILEVEL, PARALLEL_BACKENDS, "scheduling",
    "Mean planned batch width.",
)

# -- profiling counters (RouterConfig.profile) ------------------------
_register(
    "perf_maze_heap_pushes", "counter", _GLOBAL, ALL_BACKENDS,
    "profiling",
    "Heap pushes by the global maze search (profile mode).",
)
_register(
    "perf_maze_heap_pops", "counter", _GLOBAL, ALL_BACKENDS,
    "profiling",
    "Heap pops by the global maze search (profile mode).",
)
_register(
    "perf_cache_refreshes", "counter", _GLOBAL,
    ALL_BACKENDS, "profiling",
    "Full cost-cache rebuilds by the global graph.",
)
_register(
    "perf_cache_updates", "counter", _GLOBAL,
    ALL_BACKENDS, "profiling",
    "Incremental cost-cache updates by the global graph.",
)
_register(
    "perf_snapshot_clones", "counter", _GLOBAL, PARALLEL_BACKENDS,
    "profiling",
    "Demand snapshots cloned for speculative batches.",
)
_register(
    "perf_heap_pushes", "counter", _DETAILED, ALL_BACKENDS,
    "profiling",
    "Heap pushes by detailed A* (profile mode).",
)
_register(
    "perf_heap_pops", "counter", _DETAILED, ALL_BACKENDS, "profiling",
    "Heap pops by detailed A* (profile mode).",
)
_register(
    "perf_search_s", "counter", _DETAILED, ALL_BACKENDS, "profiling",
    "Wall seconds inside detailed A* search calls (profile mode).",
)
_register(
    "perf_overlay_commits", "counter", _DETAILED, ALL_BACKENDS,
    "profiling",
    "Overlay deltas committed back to the base grid.",
)
_register(
    "perf_overlay_read_nodes", "counter", _DETAILED, ALL_BACKENDS,
    "profiling",
    "Nodes read through overlay views.",
)
_register(
    "perf_overlay_write_nodes", "counter", _DETAILED, ALL_BACKENDS,
    "profiling",
    "Nodes written into overlay deltas.",
)
_register(
    "perf_ripup_net_visits", "counter", _DETAILED, ALL_BACKENDS,
    "profiling",
    "Net visits across detailed rip-up rounds (profile mode).",
)

# -- streaming bookkeeping (StreamingTracer) --------------------------
_register(
    "stream_events", "counter", _OBSERVE, ALL_BACKENDS, "streaming",
    "NDJSON events emitted by the streaming tracer.",
)
_register(
    "stream_heartbeats", "counter", _OBSERVE, ALL_BACKENDS,
    "streaming",
    "Heartbeat events emitted between spans.",
)

# -- routing gauges ---------------------------------------------------
_register(
    "edge_overflow", "gauge", _GLOBAL, ALL_BACKENDS, "routing",
    "Total edge-capacity overflow after a negotiation round.",
)
_register(
    "vertex_overflow", "gauge", _GLOBAL, ALL_BACKENDS, "routing",
    "Total vertex-capacity overflow after a negotiation round.",
)
_register(
    "conflict_weight", "gauge", _ASSIGN, ALL_BACKENDS, "routing",
    "Total weight of the layer-assignment conflict graph.",
)
_register(
    "coloring_cost", "gauge", _ASSIGN, ALL_BACKENDS, "routing",
    "Objective value of the chosen layer coloring.",
)
_register(
    "max_cut_weight", "gauge", _ASSIGN, ALL_BACKENDS, "routing",
    "Best cut weight seen by the coloring search.",
)
_register(
    "column_problems", "gauge", _ASSIGN, ALL_BACKENDS, "routing",
    "Column panel problems solved by track assignment.",
)
_register(
    "row_problems", "gauge", _ASSIGN, ALL_BACKENDS, "routing",
    "Row panel problems solved by track assignment.",
)
_register(
    "method", "gauge", _ASSIGN, ALL_BACKENDS, "routing",
    "Track-assignment method actually used (string-valued; recorded "
    "as a span attribute on track-assign).",
)

# -- span-attribute gauges (keyword arguments to tracer.span) ---------
_register(
    "nets", "gauge", _DETAILED | _MULTILEVEL, ALL_BACKENDS, "routing",
    "Net count attribute on detailed-route and level spans.",
)
_register(
    "levels", "gauge", _MULTILEVEL, ALL_BACKENDS, "routing",
    "Level count attribute on the levelize span.",
)
_register(
    "level", "gauge", _MULTILEVEL, ALL_BACKENDS, "routing",
    "Level index attribute on level spans.",
)
_register(
    "round", "gauge", _BOTH_ROUTE, ALL_BACKENDS, "routing",
    "Round index attribute on negotiation-round / ripup-round spans.",
)
_register(
    "queued", "gauge", _DETAILED, ALL_BACKENDS, "routing",
    "Rip-up queue depth attribute on ripup-round spans.",
)

# -- spans ------------------------------------------------------------
for _name, _stages, _desc in (
    ("global-route", _GLOBAL, "Whole global-routing stage."),
    ("graph-build", _GLOBAL, "Tile-graph construction."),
    ("initial-pass", _GLOBAL, "First uncongested global pass."),
    ("negotiation-round", _GLOBAL, "One negotiated-congestion round."),
    ("detailed-route", _DETAILED, "Whole detailed-routing stage."),
    ("grid-build", _DETAILED, "Detailed grid construction."),
    ("trunks", _DETAILED, "Trunk realization from track assignment."),
    ("first-pass", _DETAILED, "First detailed pass over all nets."),
    ("ripup-round", _DETAILED, "One detailed rip-up round."),
    (
        "short-polygon-repair", _DETAILED,
        "Post-pass short-polygon stitch repair.",
    ),
    ("layer-assign", _ASSIGN, "Layer-assignment stage."),
    ("track-assign", _ASSIGN, "Track-assignment stage."),
    ("levelize", _MULTILEVEL, "Net-to-level scheduling."),
    ("level", _MULTILEVEL, "One multilevel scheduling level."),
    ("pass1", _MULTILEVEL, "Multilevel pass 1 (global)."),
    ("assign", _MULTILEVEL, "Multilevel assignment pass."),
    ("pass2", _MULTILEVEL, "Multilevel pass 2 (detailed)."),
    ("audit", _FLOW, "Independent solution audit."),
):
    _register(_name, "span", _stages, ALL_BACKENDS, "routing", _desc)

# -- progress kinds ---------------------------------------------------
_register(
    "net", "progress", _BOTH_ROUTE, ALL_BACKENDS, "routing",
    "Per-net completion event (fields: stage, net, routed).",
)
_register(
    "task", "progress", _BOTH_ROUTE, PARALLEL_BACKENDS, "scheduling",
    "Per-task pool fan-in event under profile=full "
    "(fields: stage, index, busy_seconds).",
)


def _check_prefix_discipline() -> None:
    """Categories and their owned prefixes must coincide exactly."""
    for spec in _REGISTRY.values():
        if spec.kind not in ("counter", "gauge"):
            continue
        for category, prefixes in CATEGORY_PREFIXES.items():
            owns_name = spec.name.startswith(prefixes)
            in_category = spec.category == category
            # worker_utilization is scheduling bookkeeping without the
            # parallel_ prefix; it predates the registry and renaming
            # would break committed trace baselines.  It is the single
            # allowed exception: category without prefix is tolerated,
            # prefix without category never is.
            if owns_name and not in_category:
                raise ValueError(
                    f"{spec.kind} {spec.name!r} carries the "
                    f"{category} prefix but is registered as "
                    f"{spec.category!r}"
                )


_check_prefix_discipline()


def lookup(kind: str, name: str) -> Optional[MetricSpec]:
    """The spec registered for ``(kind, name)``, or ``None``."""
    return _REGISTRY.get((kind, name))


def is_registered(kind: str, name: str) -> bool:
    """Whether ``(kind, name)`` is a declared observability name."""
    return (kind, name) in _REGISTRY


def metric_specs(
    kind: Optional[str] = None,
    *,
    stage: Optional[str] = None,
    backend: Optional[str] = None,
    category: Optional[str] = None,
) -> tuple[MetricSpec, ...]:
    """Registered specs, filtered; registration order preserved."""
    out = []
    for spec in _REGISTRY.values():
        if kind is not None and spec.kind != kind:
            continue
        if stage is not None and stage not in spec.stages:
            continue
        if backend is not None and backend not in spec.backends:
            continue
        if category is not None and spec.category != category:
            continue
        out.append(spec)
    return tuple(out)


def metric_names(
    kind: Optional[str] = None,
    *,
    stage: Optional[str] = None,
    backend: Optional[str] = None,
    category: Optional[str] = None,
) -> tuple[str, ...]:
    """Registered names, filtered like :func:`metric_specs`."""
    return tuple(
        spec.name
        for spec in metric_specs(
            kind, stage=stage, backend=backend, category=category
        )
    )


def strip_prefixes(*categories: str) -> tuple[str, ...]:
    """The name prefixes owned by strippable ``categories``.

    This is what the regression gate feeds to its trace scrubber:
    ``strip_prefixes("scheduling")`` for parallel runs,
    ``strip_prefixes("profiling", "streaming")`` for profiled ones.
    Unknown categories raise so a typo cannot silently strip nothing.
    """
    out: list[str] = []
    for category in categories:
        try:
            out.extend(CATEGORY_PREFIXES[category])
        except KeyError:
            raise ValueError(
                f"no strippable category {category!r}; known: "
                f"{sorted(CATEGORY_PREFIXES)}"
            ) from None
    return tuple(out)


def history_counters() -> tuple[str, ...]:
    """Counters tracked over time by the perf-history rollup.

    Ordered by their declared ``history`` rank — the column order of
    the committed trajectory reports, so it must stay stable.
    """
    ranked = [
        spec
        for spec in _REGISTRY.values()
        if spec.kind == "counter" and spec.history
    ]
    ranked.sort(key=lambda spec: spec.history)
    return tuple(spec.name for spec in ranked)


__all__ = [
    "ALL_BACKENDS",
    "CATEGORY_PREFIXES",
    "EXECUTOR_BACKENDS",
    "KINDS",
    "MetricSpec",
    "PARALLEL_BACKENDS",
    "history_counters",
    "is_registered",
    "lookup",
    "metric_names",
    "metric_specs",
    "strip_prefixes",
]
