"""Sequential congestion-driven global routing.

Nets are decomposed into two-pin subnets (Prim spanning tree over the
pins), ordered bottom-up (nets local to smaller tile neighbourhoods
first, per the multilevel scheme of Section II-B), and routed by A* on
the tile graph.  In stitch-aware mode the path cost follows Eq. (3):
edge congestion plus the vertex (line-end) congestion term; the
baseline mode — standing in for NTUgr [5] — prices edges only.

A negotiation-style rip-up and re-route loop with history costs cleans
up edge overflow, mirroring NTUgr's overflow reduction.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from collections.abc import Sequence
from typing import Optional, Union

from ..algorithms import steiner_tree_edges
from ..layout import Design, Net
from ..observe import Span, Tracer, ensure
from ..parallel import (
    BatchExecutor,
    ProcessBatchExecutor,
    SharedArraySpec,
    SharedStateChannel,
    plan_batches,
)
from .cost import (
    VERTEX_OVERFLOW_PENALTY,  # noqa: F401  (re-export: moved to .cost)
    VERTEX_WEIGHT,  # noqa: F401  (re-export: moved to .cost)
)
from ..analysis.context import context
from .graph import GlobalGraph, Tile
from .overlay import windows_hit

#: Tile margin of the first (windowed) A* attempt around a subnet's
#: endpoints; doubles as the batch planner's expansion: two nets whose
#: bboxes stay this far apart cannot read each other's demand.
ASTAR_WINDOW_MARGIN = 4

#: Either batch-executor backend (``RouterConfig(executor=...)``).
AnyPool = Union[BatchExecutor, ProcessBatchExecutor]

#: Per-process worker state installed by :func:`_process_worker_init`
#: (a module global because pool tasks must be picklable by reference).
_PROC_CONTEXT: Optional[dict] = None


@context("worker-process")
def _process_worker_init(
    params: dict, graph: GlobalGraph, handle: tuple
) -> None:
    """Pool initializer: adopt the global-routing stage in a worker.

    ``graph`` arrives by fork inheritance (or pickle under spawn) at
    whatever stage state the parent had last published; the shared-
    state channel then keeps it current — the first ``sync`` of a
    late-forked worker simply re-imports the full arrays, which is
    idempotent over the inherited state.
    """
    global _PROC_CONTEXT
    _PROC_CONTEXT = {
        "router": GlobalRouter(**params),
        "graph": graph,
        "channel": SharedStateChannel.attach(handle),
    }


@context(
    "worker-process",
    reads=("channel",),
    writes=("global.demand", "global.history", "global.cache"),
)
def _process_worker_task(
    net_name: str,
) -> tuple[
    Optional[list[list[Tile]]],
    dict[str, float],
    list[tuple[int, int, int, int]],
]:
    """Pool task: speculatively route one net in a worker process.

    Returns the route's tile paths rather than a :class:`GlobalRoute`
    — the parent re-wraps them around its own :class:`Net` object, so
    net identity on the submitting side is untouched by pickling.
    """
    ctx = _PROC_CONTEXT
    assert ctx is not None, "worker used before _process_worker_init"
    synced = ctx["channel"].sync()
    if synced is not None:
        arrays, _frames = synced
        ctx["graph"].import_shared_state(arrays)
    graph = ctx["graph"]
    net = graph.design.netlist[net_name]
    route, stats, windows = ctx["router"]._route_speculative(graph, net)
    paths = None if route is None else route.paths
    return paths, stats, windows


@dataclasses.dataclass
class GlobalRoute:
    """Global route of one net: one tile path per two-pin subnet."""

    net: Net
    paths: list[list[Tile]]

    @property
    def wirelength_tiles(self) -> int:
        """Total tile hops over all subnet paths."""
        return sum(len(p) - 1 for p in self.paths)


@dataclasses.dataclass
class GlobalRoutingResult:
    """Outcome of global routing a design."""

    design: Design
    graph: GlobalGraph
    routes: dict[str, GlobalRoute]
    failed: list[str]
    cpu_seconds: float

    @property
    def wirelength(self) -> int:
        """Total wirelength in grid pitches (tile hops x tile size)."""
        hops = sum(r.wirelength_tiles for r in self.routes.values())
        return hops * self.graph.tile_size

    @property
    def total_vertex_overflow(self) -> int:
        """TVOF of Table IV."""
        return self.graph.total_vertex_overflow()

    @property
    def max_vertex_overflow(self) -> int:
        """MVOF of Table IV."""
        return self.graph.max_vertex_overflow()


class GlobalRouter:
    """Two-pin-decomposition maze router over a :class:`GlobalGraph`.

    Args:
        stitch_aware: include the vertex (line-end) congestion term of
            Eqs. (2)–(3).  Off reproduces the wire-density-only router
            compared against in Table IV.
        ripup_rounds: negotiation rounds after the initial pass.
        steiner: decompose multi-pin nets over a greedy 1-Steiner tree
            instead of the plain spanning tree (optional wirelength
            improvement; the paper's experiments use the spanning
            tree, so this defaults to off).
        workers: worker threads for net-batch routing.  ``1`` keeps
            the serial loop; ``N > 1`` routes bbox-disjoint net batches
            speculatively and merges them in canonical order, which is
            provably result-identical to the serial loop (see
            ``docs/parallelism.md``).
        sanitize: route speculative nets against instrumented
            snapshots that audit every demand-array access and verify
            it against the declared A* windows, raising
            :class:`~repro.analysis.SanitizerViolation` on any
            undeclared access (see ``docs/static_analysis.md``).
        engine: deprecated and ignored; only ``"array"`` (the one
            engine) is accepted, with a :class:`DeprecationWarning`.
        profile: ``"off"`` / ``"counters"`` / ``"full"``.  ``"counters"``
            flushes search-level ``perf_*`` counters (maze heap
            pushes/pops, snapshot clones, cost-cache refreshes and
            incremental updates) per pass and negotiation round;
            ``"full"`` additionally reports per-net commits through
            :meth:`Tracer.progress` (see ``docs/observability.md``).
        executor: pool backend for ``workers > 1`` — ``"thread"``
            (in-process, state shared for free) or ``"process"``
            (multiprocessing pool; the graph's mutable arrays are
            published to shared memory before each batch and workers
            ship back the same speculative results).  Byte-identical
            output either way; resolve ``"auto"`` with
            :func:`repro.config.resolve_executor` before constructing
            the router.
    """

    def __init__(
        self,
        stitch_aware: bool = True,
        ripup_rounds: int = 8,
        steiner: bool = False,
        workers: int = 1,
        sanitize: bool = False,
        profile: str = "off",
        executor: str = "thread",
        engine: Optional[str] = None,
    ) -> None:
        if engine is not None:
            if engine != "array":
                raise ValueError(
                    f"engine={engine!r} is not supported: the object engine "
                    "was removed and the router has one engine"
                )
            warnings.warn(
                "GlobalRouter(engine=...) is deprecated and selects "
                "nothing; drop the argument",
                DeprecationWarning,
                stacklevel=2,
            )
        if profile not in ("off", "counters", "full"):
            raise ValueError(
                f"profile must be 'off', 'counters' or 'full', got {profile!r}"
            )
        if executor not in ("thread", "process"):
            raise ValueError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        self.stitch_aware = stitch_aware
        self.ripup_rounds = ripup_rounds
        self.steiner = steiner
        self.workers = workers
        self.sanitize = sanitize
        self.profile = profile
        self.executor = executor
        self._profiling = profile != "off"
        self._tracer: Optional[Tracer] = None
        self._proc_channel: Optional[SharedStateChannel] = None

    # ------------------------------------------------------------------
    def route(
        self, design: Design, tracer: Optional[Tracer] = None
    ) -> GlobalRoutingResult:
        """Globally route every net of ``design``.

        Spans recorded on ``tracer``: tile-graph build, the initial
        bottom-up pass, and one span per negotiation round with the
        edge/vertex overflow left after it (the Table IV quantities).
        """
        tracer = ensure(tracer)
        self._tracer = tracer if self.profile == "full" else None
        start = time.perf_counter()
        pool: Optional[AnyPool] = None
        if self.workers > 1:
            on_task = None
            if self.profile == "full":
                # Per-task fan-in: the executor reports completions on
                # the calling (main) thread in submission order, so the
                # stream stays canonically ordered.
                def on_task(index: int, busy: float) -> None:
                    tracer.progress(
                        "task",
                        stage="global",
                        index=index,
                        busy_seconds=round(busy, 6),
                    )

            if self.executor == "process":
                pool = ProcessBatchExecutor(self.workers, on_task=on_task)
            else:
                pool = BatchExecutor(self.workers, on_task=on_task)
        try:
            with tracer.span("global-route") as stage:
                with tracer.span("graph-build"):
                    graph = GlobalGraph(design)
                order = self._bottom_up_order(design, graph)

                routes: dict[str, GlobalRoute] = {}
                failed: list[str] = []
                with tracer.span("initial-pass") as span:
                    stats: dict[str, float] = {}
                    self._route_many(
                        graph, order, routes, failed, stats, pool, span
                    )
                    span.count(
                        "maze_expansions", stats.get("maze_expansions", 0)
                    )
                    self._flush_stage_counters(span, stats)
                    span.count("nets_routed", len(routes))
                    span.gauge("edge_overflow", graph.edge_overflow())
                    span.gauge(
                        "vertex_overflow", graph.total_vertex_overflow()
                    )

                for round_index in range(self.ripup_rounds):
                    victims = self._overflow_victims(graph, routes)
                    if not victims:
                        break
                    with tracer.span(
                        "negotiation-round", round=round_index
                    ) as span:
                        stats = {}
                        self._bump_history(graph)
                        for name in victims:
                            self._unplace(graph, routes.pop(name))
                        victim_nets = [
                            design.netlist[name] for name in victims
                        ]
                        self._route_many(
                            graph, victim_nets, routes, failed, stats,
                            pool, span,
                        )
                        span.count(
                            "maze_expansions", stats.get("maze_expansions", 0)
                        )
                        self._flush_stage_counters(span, stats)
                        span.count("ripup_victims", len(victims))
                        span.gauge("edge_overflow", graph.edge_overflow())
                        span.gauge(
                            "vertex_overflow", graph.total_vertex_overflow()
                        )
                stage.count("failed_nets", len(failed))
                if self.sanitize:
                    # Explicit zero: a clean sanitized run reports the
                    # counter so rollups can assert on its presence.
                    stage.count("sanitize_violations", 0)
                if pool is not None:
                    stage.count("parallel_tasks", pool.tasks)
                    stage.gauge(
                        "worker_utilization", round(pool.utilization(), 4)
                    )
                if self._proc_channel is not None:
                    stage.count(
                        "parallel_ipc_publishes", self._proc_channel.publishes
                    )
                    stage.count(
                        "parallel_ipc_publish_bytes",
                        self._proc_channel.published_bytes,
                    )
                if self._profiling:
                    stage.count("perf_cache_refreshes", graph.perf_cache_refreshes)
                    stage.count("perf_cache_updates", graph.perf_cache_updates)
        finally:
            self._tracer = None
            if pool is not None:
                pool.shutdown()
            if self._proc_channel is not None:
                # After shutdown: no worker still maps the segments.
                self._proc_channel.unlink()
                self._proc_channel = None

        return GlobalRoutingResult(
            design=design,
            graph=graph,
            routes=routes,
            failed=failed,
            cpu_seconds=time.perf_counter() - start,
        )

    @staticmethod
    def _flush_stage_counters(span: Span, stats: dict[str, float]) -> None:
        """Report accumulated sanitizer/profiling counters on ``span``.

        Flushed (and zeroed) per pass and per negotiation round, so the
        ``perf_*`` search counters land on the round that incurred them.
        """
        for name in sorted(stats):
            if name.startswith(("sanitize_", "perf_")):
                span.count(name, stats[name])
                stats[name] = 0

    # ------------------------------------------------------------------
    # Net-batch scheduling (workers > 1)
    # ------------------------------------------------------------------
    @context("canonical")
    def _route_many(
        self,
        graph: GlobalGraph,
        nets: Sequence[Net],
        routes: dict[str, GlobalRoute],
        failed: list[str],
        stats: dict[str, float],
        pool: Optional[AnyPool],
        span: Span,
    ) -> None:
        """Route ``nets`` in order, batching onto the pool when given.

        The serial loop and the batched loop commit identical state:
        batches hold bbox-disjoint nets routed speculatively against a
        :class:`GraphSnapshot`, then merged in canonical net order —
        a net whose search windows touch an earlier batch-mate's
        placed tiles is discarded and re-routed on the live graph, so
        every committed route (and every committed counter) is the one
        the serial loop would have produced.
        """
        if pool is None or len(nets) < 2:
            for net in nets:
                route = self._route_net(graph, net, stats)
                self._commit(routes, failed, net, route)
                if self._tracer is not None:
                    self._tracer.progress(
                        "net",
                        stage="global",
                        net=net.name,
                        routed=route is not None,
                    )
            return

        plan = plan_batches(
            nets,
            rect_of=lambda n: self._net_tile_rect(graph, n),
            expand=ASTAR_WINDOW_MARGIN,
        )
        conflicts = 0
        for batch in plan:
            if len(batch) == 1:
                net = batch[0]
                self._commit(
                    routes, failed, net, self._route_net(graph, net, stats)
                )
                continue
            results = self._speculate_batch(graph, batch, pool)
            if self._profiling:
                # One demand snapshot per speculative net (counted on
                # the main thread; workers never touch shared stats).
                stats["perf_snapshot_clones"] = (
                    stats.get("perf_snapshot_clones", 0) + len(batch)
                )
            written: set = set()
            for net, (route, net_stats, windows) in zip(batch, results):
                if windows_hit(windows, written):
                    # The speculative search read state an earlier
                    # batch-mate has since changed; redo it serially.
                    conflicts += 1
                    route = self._route_net(graph, net, stats)
                else:
                    for name, value in net_stats.items():
                        stats[name] = stats.get(name, 0) + value
                    if route is not None:
                        for path in route.paths:
                            self._place_path(graph, path)
                if route is not None:
                    written.update(t for p in route.paths for t in p)
                self._commit(routes, failed, net, route)
                if self._tracer is not None:
                    self._tracer.progress(
                        "net",
                        stage="global",
                        net=net.name,
                        routed=route is not None,
                    )
        span.count("parallel_batches", len(plan))
        span.count("parallel_conflicts", conflicts)
        span.gauge("parallel_max_batch_width", plan.max_width)
        span.gauge("parallel_mean_batch_width", round(plan.mean_width, 3))

    @context("canonical")
    def _speculate_batch(
        self,
        graph: GlobalGraph,
        batch: Sequence[Net],
        pool: AnyPool,
    ) -> list[
        tuple[
            Optional[GlobalRoute],
            dict[str, float],
            list[tuple[int, int, int, int]],
        ]
    ]:
        """Run one conflict-free batch on whichever pool backend is up.

        The thread pool closes over the live graph; the process pool
        first publishes the graph's mutable arrays to shared memory
        (the live graph is frozen while the batch is in flight, so one
        publish per batch is exact), then ships net names only.
        """
        if isinstance(pool, ProcessBatchExecutor):
            channel = self._ensure_process_backend(graph, pool)
            channel.publish(graph.shared_state_arrays())
            raw = pool.run([net.name for net in batch])
            results = []
            for net, (paths, net_stats, windows) in zip(batch, raw):
                route = (
                    None
                    if paths is None
                    else GlobalRoute(net=net, paths=paths)
                )
                results.append((route, net_stats, windows))
            return results
        return pool.run(
            lambda net: self._route_speculative(graph, net), batch
        )

    def _ensure_process_backend(
        self, graph: GlobalGraph, pool: ProcessBatchExecutor
    ) -> SharedStateChannel:
        """Lazily create the shared-state channel and configure the pool."""
        if self._proc_channel is None:
            specs = [
                SharedArraySpec(key, array.shape, array.dtype.str)
                for key, array in graph.shared_state_arrays().items()
            ]
            self._proc_channel = SharedStateChannel.create("global", specs)
            params = dict(
                stitch_aware=self.stitch_aware,
                ripup_rounds=self.ripup_rounds,
                steiner=self.steiner,
                workers=1,
                sanitize=self.sanitize,
                profile=self.profile,
            )
            pool.configure(
                task=_process_worker_task,
                initializer=_process_worker_init,
                initargs=(params, graph, self._proc_channel.handle),
            )
        return self._proc_channel

    @context("speculative")
    def _route_speculative(
        self, graph: GlobalGraph, net: Net
    ) -> tuple[Optional[GlobalRoute], dict[str, float], list[tuple[int, int, int, int]]]:
        """Worker body: route one net against a demand snapshot.

        Returns the route (not yet placed on the live graph), the
        net's local search counters, and every A* window searched —
        the declared read region the merge loop validates.
        """
        stats: dict[str, float] = {}
        windows: list[tuple[int, int, int, int]] = []
        if self.sanitize:
            # Imported lazily: repro.analysis is a downstream tool
            # layer; the routers must not depend on it by default.
            from ..analysis.sanitize import SanitizedGraphSnapshot

            snapshot = SanitizedGraphSnapshot(graph)
            route = self._route_net(snapshot, net, stats, windows)
            snapshot.verify(windows, stats)
        else:
            snapshot = graph.snapshot()
            route = self._route_net(snapshot, net, stats, windows)
        return route, stats, windows

    def _net_tile_rect(
        self, graph: GlobalGraph, net: Net
    ) -> tuple[int, int, int, int]:
        """Inclusive tile-space bbox of the net's pins."""
        box = net.bbox
        lo = graph.tile_of(box.lo_x, box.lo_y)
        hi = graph.tile_of(box.hi_x, box.hi_y)
        return (lo[0], lo[1], hi[0], hi[1])

    @staticmethod
    def _commit(
        routes: dict[str, GlobalRoute],
        failed: list[str],
        net: Net,
        route: Optional[GlobalRoute],
    ) -> None:
        """Record one routing outcome exactly as the serial loop does."""
        if route is None:
            failed.append(net.name)
        else:
            routes[net.name] = route

    # ------------------------------------------------------------------
    # Net ordering and decomposition
    # ------------------------------------------------------------------
    def _bottom_up_order(
        self, design: Design, graph: GlobalGraph
    ) -> list[Net]:
        """Local nets first: sort by bbox extent in tiles (Section II-B)."""

        def level(net: Net) -> tuple[int, int, str]:
            box = net.bbox
            lo = graph.tile_of(box.lo_x, box.lo_y)
            hi = graph.tile_of(box.hi_x, box.hi_y)
            extent = max(hi[0] - lo[0], hi[1] - lo[1])
            return (extent, net.hpwl, net.name)

        return sorted(design.netlist, key=level)

    def two_pin_subnets(
        self, net: Net, graph: GlobalGraph
    ) -> list[tuple[Tile, Tile]]:
        """Two-pin decomposition over the net's pin tiles.

        Prim spanning tree by default; with ``steiner=True`` the edges
        come from a greedy 1-Steiner tree over the tile coordinates
        (added Steiner tiles become ordinary path endpoints).
        """
        tiles: list[Tile] = []
        seen = set()
        for pin in net.pins:
            t = graph.tile_of(pin.location.x, pin.location.y)
            if t not in seen:
                seen.add(t)
                tiles.append(t)
        if len(tiles) < 2:
            return []
        if self.steiner and len(tiles) > 2:
            return [tuple(e) for e in steiner_tree_edges(tiles)]
        in_tree = {0}
        edges: list[tuple[Tile, Tile]] = []
        dist = {
            idx: (abs(t[0] - tiles[0][0]) + abs(t[1] - tiles[0][1]), 0)
            for idx, t in enumerate(tiles)
        }
        while len(in_tree) < len(tiles):
            best = min(
                (idx for idx in range(len(tiles)) if idx not in in_tree),
                key=lambda idx: dist[idx][0],
            )
            parent = dist[best][1]
            edges.append((tiles[parent], tiles[best]))
            in_tree.add(best)
            for idx, t in enumerate(tiles):
                if idx in in_tree:
                    continue
                d = abs(t[0] - tiles[best][0]) + abs(t[1] - tiles[best][1])
                if d < dist[idx][0]:
                    dist[idx] = (d, best)
        return edges

    # ------------------------------------------------------------------
    # Single-net routing
    # ------------------------------------------------------------------
    def _route_net(
        self,
        graph: GlobalGraph,
        net: Net,
        stats: Optional[dict[str, float]] = None,
        windows: Optional[list[tuple[int, int, int, int]]] = None,
    ) -> Optional[GlobalRoute]:
        """Route one net on ``graph`` (live graph or worker snapshot).

        ``stats`` accumulates the net's maze expansions; ``windows``,
        when given, collects every searched window — speculative
        callers use it as the net's read footprint.
        """
        if stats is None:
            stats = {}
        subnets = self.two_pin_subnets(net, graph)
        paths: list[list[Tile]] = []
        for src, dst in subnets:
            path = self._astar(graph, src, dst, stats, windows)
            if path is None:
                for placed in paths:
                    self._unplace_path(graph, placed)
                return None
            self._place_path(graph, path)
            paths.append(path)
        return GlobalRoute(net=net, paths=paths)

    def _astar(
        self,
        graph: GlobalGraph,
        src: Tile,
        dst: Tile,
        stats: Optional[dict[str, float]] = None,
        windows: Optional[list[tuple[int, int, int, int]]] = None,
    ) -> Optional[list[Tile]]:
        if stats is None:
            stats = {}
        margin = ASTAR_WINDOW_MARGIN
        lo_x = max(0, min(src[0], dst[0]) - margin)
        hi_x = min(graph.nx - 1, max(src[0], dst[0]) + margin)
        lo_y = max(0, min(src[1], dst[1]) - margin)
        hi_y = min(graph.ny - 1, max(src[1], dst[1]) + margin)
        window = (lo_x, lo_y, hi_x, hi_y)
        if windows is not None:
            windows.append(window)
        path = self._astar_in_window(graph, src, dst, window, stats)
        if path is None:
            full = (0, 0, graph.nx - 1, graph.ny - 1)
            if windows is not None:
                windows.append(full)
            path = self._astar_in_window(graph, src, dst, full, stats)
        return path

    def _astar_in_window(
        self,
        graph: GlobalGraph,
        src: Tile,
        dst: Tile,
        window: tuple[int, int, int, int],
        stats: dict[str, float],
    ) -> Optional[list[Tile]]:
        """Direction-aware A* between two tiles (see
        :meth:`GlobalGraph.astar_in_window`)."""
        if src == dst:
            return [src]
        return graph.astar_in_window(
            src, dst, window, self.stitch_aware, stats, self._profiling
        )

    # ------------------------------------------------------------------
    # Demand bookkeeping
    # ------------------------------------------------------------------
    def _place_path(self, graph: GlobalGraph, path: Sequence[Tile]) -> None:
        self._apply_path(graph, path, +1)

    def _unplace_path(self, graph: GlobalGraph, path: Sequence[Tile]) -> None:
        self._apply_path(graph, path, -1)

    def _unplace(self, graph: GlobalGraph, route: GlobalRoute) -> None:
        for path in route.paths:
            self._unplace_path(graph, path)

    @staticmethod
    def _apply_path(
        graph: GlobalGraph, path: Sequence[Tile], delta: int
    ) -> None:
        for a, b in zip(path, path[1:]):
            graph.add_edge_demand(graph.edge_between(a, b), delta)
        for tile in vertical_run_line_ends(path):
            graph.add_vertex_demand(tile, delta)

    # ------------------------------------------------------------------
    # Negotiation
    # ------------------------------------------------------------------
    def _overflow_victims(
        self, graph: GlobalGraph, routes: dict[str, GlobalRoute]
    ) -> list[str]:
        """Nets crossing an overflowed edge or, in stitch-aware mode,
        holding a line end on a vertex-overflowed tile."""
        victims = []
        for name, route in routes.items():
            guilty = False
            for path in route.paths:
                if any(
                    graph.edge_demand(graph.edge_between(a, b))
                    > graph.edge_capacity(graph.edge_between(a, b))
                    for a, b in zip(path, path[1:])
                ):
                    guilty = True
                    break
                if self.stitch_aware and any(
                    graph.vertex_demand[t[0], t[1]]
                    > graph.vertex_capacity[t[0], t[1]]
                    for t in vertical_run_line_ends(path)
                ):
                    guilty = True
                    break
            if guilty:
                victims.append(name)
        return victims

    def _bump_history(self, graph: GlobalGraph) -> None:
        """Raise history cost on currently overflowed resources."""
        over_h = graph.h_demand > graph.h_capacity
        over_v = graph.v_demand > graph.v_capacity
        graph.h_history[over_h] += 0.5
        graph.v_history[over_v] += 0.5
        if self.stitch_aware:
            over_vertex = graph.vertex_demand > graph.vertex_capacity
            graph.vertex_history[over_vertex] += 0.5
        # History feeds the cost caches; rebuild them after mutating
        # it behind the graph's back.
        graph.refresh_cost_cache()


def vertical_run_line_ends(path: Sequence[Tile]) -> list[Tile]:
    """Tiles holding a line end of a vertical run of ``path``.

    The global route's maximal vertical runs become vertical wire
    segments after layer assignment; their two end tiles each receive a
    line end (the quantity the vertex demand of Section III-A counts).
    """
    ends: list[Tile] = []
    n = len(path)
    run_start: Optional[int] = None
    for idx in range(n - 1):
        vertical = path[idx][0] == path[idx + 1][0]
        if vertical and run_start is None:
            run_start = idx
        if not vertical and run_start is not None:
            ends.extend([path[run_start], path[idx]])
            run_start = None
    if run_start is not None:
        ends.extend([path[run_start], path[n - 1]])
    return ends
