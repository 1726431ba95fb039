"""Speculation-footprint sanitizer: injection and integration tests.

The sanitized overlays must (a) stay silent on protocol-conforming
access, (b) fail loudly on every class of undeclared access, (c) catch
a bypass injected into the real speculative routing path, and (d) run
the same indexed searches production runs — the sanitizer audits the
code that executes, not a reference path beside it.  Detailed searches
run the compiled kernel on the real buffers and are replayed by the
reference search as a shadow oracle; (e) any divergence in path,
counters or read footprint is a violation.
"""

import pytest

from repro.benchmarks_gen import mcnc_design
from repro.detailed.grid import DetailedGrid as _Grid
from repro.globalroute.graph import GlobalGraph as _Graph

from repro.analysis import (
    SanitizedGraphSnapshot,
    SanitizedGridOverlay,
    SanitizerViolation,
)
from repro.config import RouterConfig
from repro.api import StitchAwareRouter
from repro.detailed import DetailedGrid, kernel
from repro.geometry import Point
from repro.globalroute import GlobalGraph
from repro.layout import Design, Net, Netlist, Pin, Technology


def make_design(nets=None, width=90, height=90):
    config = RouterConfig(stitch_spacing=15, tile_size=15)
    if nets is None:
        nets = [
            Net("n0", (Pin("a", Point(1, 1), 1), Pin("b", Point(50, 40), 1)))
        ]
    return Design(
        name="toy",
        width=width,
        height=height,
        technology=Technology(3),
        netlist=Netlist(nets),
        config=config,
    )


def wide_quad_design():
    """Four nets whose tile rects stay apart even after the global
    router's window margin: speculative batches in *both* stages."""
    nets = [
        Net("n0", (Pin("a", Point(2, 2), 1), Pin("b", Point(40, 20), 1))),
        Net("n1", (Pin("c", Point(250, 2), 1), Pin("d", Point(290, 20), 1))),
        Net("n2", (Pin("e", Point(2, 250), 1), Pin("f", Point(40, 290), 1))),
        Net("n3", (Pin("g", Point(250, 250), 1), Pin("h", Point(290, 290), 1))),
    ]
    return make_design(nets=nets, width=300, height=300)


def quad_design():
    """Four pairwise-distant nets: guaranteed speculative batches."""
    nets = [
        Net("n0", (Pin("a", Point(2, 2), 1), Pin("b", Point(12, 6), 1))),
        Net("n1", (Pin("c", Point(62, 2), 1), Pin("d", Point(72, 6), 1))),
        Net("n2", (Pin("e", Point(2, 62), 1), Pin("f", Point(12, 66), 1))),
        Net("n3", (Pin("g", Point(62, 62), 1), Pin("h", Point(72, 66), 1))),
    ]
    return make_design(nets=nets)


class TestSanitizedGraphSnapshot:
    def test_demand_read_inside_window_passes(self):
        snap = SanitizedGraphSnapshot(GlobalGraph(make_design()))
        _ = snap.h_demand[0, 0]
        stats = {}
        snap.verify([(0, 0, 5, 5)], stats)
        assert stats["sanitize_cells_checked"] == 1
        assert stats["sanitize_nets_checked"] == 1

    def test_demand_read_outside_windows_raises(self):
        snap = SanitizedGraphSnapshot(GlobalGraph(make_design()))
        _ = snap.v_demand[2, 1]
        with pytest.raises(SanitizerViolation, match="undeclared demand"):
            snap.verify([(0, 0, 1, 1)])

    def test_no_windows_means_no_reads_allowed(self):
        snap = SanitizedGraphSnapshot(GlobalGraph(make_design()))
        _ = snap.vertex_demand[0, 0]
        with pytest.raises(SanitizerViolation):
            snap.verify([])

    def test_edge_access_needs_both_touched_tiles(self):
        # An h-edge read at (i, j) observes tiles (i, j) AND (i+1, j);
        # a window covering only the tail tile is an undeclared read.
        snap = SanitizedGraphSnapshot(GlobalGraph(make_design()))
        _ = snap.h_demand[1, 1]
        with pytest.raises(SanitizerViolation):
            snap.verify([(1, 1, 1, 1)])
        snap.verify([(1, 1, 2, 1)])

    def test_demand_write_is_recorded(self):
        snap = SanitizedGraphSnapshot(GlobalGraph(make_design()))
        snap.h_demand[0, 0] = 3
        with pytest.raises(SanitizerViolation):
            snap.verify([])

    def test_shared_capacity_write_raises_immediately(self):
        snap = SanitizedGraphSnapshot(GlobalGraph(make_design()))
        with pytest.raises(SanitizerViolation, match="frozen"):
            snap.h_capacity[0, 0] = 99

    def test_shared_history_write_raises_immediately(self):
        snap = SanitizedGraphSnapshot(GlobalGraph(make_design()))
        with pytest.raises(SanitizerViolation, match="frozen"):
            snap.v_history[0, 0] = 1.0

    def test_non_scalar_access_is_unauditable(self):
        snap = SanitizedGraphSnapshot(GlobalGraph(make_design()))
        with pytest.raises(SanitizerViolation, match="unauditable"):
            _ = snap.h_demand[:, 0]

    def test_cost_cache_read_outside_windows_raises(self):
        snap = SanitizedGraphSnapshot(GlobalGraph(make_design()))
        _ = snap._v_price[4][4]
        with pytest.raises(SanitizerViolation, match="undeclared demand"):
            snap.verify([(0, 0, 1, 1)])

    def test_cost_cache_edge_read_needs_both_tiles(self):
        snap = SanitizedGraphSnapshot(GlobalGraph(make_design()))
        _ = snap._h_cost[1][1]
        with pytest.raises(SanitizerViolation):
            snap.verify([(1, 1, 1, 1)])
        snap.verify([(1, 1, 2, 1)])

    def test_indexed_search_inside_window_verifies_clean(self):
        snap = SanitizedGraphSnapshot(GlobalGraph(make_design()))
        window = (0, 0, 3, 3)
        stats = {}
        path = snap.astar_in_window((0, 0), (3, 2), window, True, stats)
        assert path is not None and path[-1] == (3, 2)
        assert snap.demand_accesses  # the cache reads were audited
        snap.verify([window], stats)
        assert stats["sanitize_cells_checked"] == len(snap.demand_accesses)

    def test_demand_mutator_writes_clone_not_base(self):
        graph = GlobalGraph(make_design())
        before = graph._h_cost[0][0]
        snap = SanitizedGraphSnapshot(graph)
        snap.add_edge_demand(("h", 0, 0), 5)
        assert graph._h_cost[0][0] == before
        assert snap._h_cost[0][0] > before
        snap.verify([(0, 0, 1, 0)])


class TestSanitizedGridOverlay:
    def test_conforming_access_verifies_clean(self):
        overlay = SanitizedGridOverlay(DetailedGrid(make_design()))
        node = (5, 5, 1)
        assert overlay._owner.get(node) is None
        overlay._owner[node] = "n0"
        stats = {}
        overlay.verify(stats)
        assert stats["sanitize_nets_checked"] == 1
        assert stats["sanitize_nodes_checked"] >= 2  # the read + the write

    def test_base_read_bypassing_overlay_raises(self):
        overlay = SanitizedGridOverlay(DetailedGrid(make_design()))
        with pytest.raises(SanitizerViolation, match="bypassed the overlay"):
            overlay._owner._base.get((7, 7, 1))

    def test_overlay_mediated_read_then_base_read_passes(self):
        overlay = SanitizedGridOverlay(DetailedGrid(make_design()))
        node = (7, 7, 1)
        overlay._owner.get(node)  # records the read footprint first
        assert overlay._owner._base.get(node) is None

    def test_live_ownership_write_raises(self):
        overlay = SanitizedGridOverlay(DetailedGrid(make_design()))
        with pytest.raises(SanitizerViolation, match="live ownership"):
            overlay._owner._base[(3, 3, 1)] = "n0"

    def test_pin_set_mutation_raises(self):
        overlay = SanitizedGridOverlay(DetailedGrid(make_design()))
        with pytest.raises(SanitizerViolation, match="pin-set mutation"):
            overlay._pins.add((1, 1, 1))

    def test_indexed_owner_id_read_without_log_raises(self):
        overlay = SanitizedGridOverlay(DetailedGrid(make_design()))
        idx = overlay._encode((7, 7, 1))
        with pytest.raises(SanitizerViolation, match="bypassed the overlay"):
            overlay._owner_ids[idx]
        overlay._reads_idx.add(idx)  # the search logs first, then reads
        assert overlay._owner_ids[idx] == 0

    def test_indexed_pin_mask_read_without_log_raises(self):
        overlay = SanitizedGridOverlay(DetailedGrid(make_design()))
        with pytest.raises(SanitizerViolation, match="pin-mask"):
            overlay._pin_mask[overlay._encode((1, 1, 1))]

    def test_indexed_array_writes_raise(self):
        overlay = SanitizedGridOverlay(DetailedGrid(make_design()))
        idx = overlay._encode((3, 3, 1))
        with pytest.raises(SanitizerViolation, match="live ownership-id"):
            overlay._owner_ids[idx] = 1
        with pytest.raises(SanitizerViolation, match="live pin-mask"):
            overlay._pin_mask[idx] = 1

    def test_indexed_search_verifies_clean_and_counts(self):
        grid = DetailedGrid(make_design())
        grid.occupy((4, 4, 1), "n0")
        grid.mark_pin((4, 4, 1))
        overlay = SanitizedGridOverlay(grid)
        stats = {}
        path = overlay.indexed_search(
            "n0", {(4, 4, 1)}, {(20, 4, 1)}, (0, 0, 30, 10), 10_000,
            foreign_penalty=3.0, stats=stats,
        )
        assert path is not None and path[-1] == (20, 4, 1)
        assert overlay._reads_idx  # every consult was logged
        overlay.verify(stats)
        assert stats["sanitize_nodes_checked"] >= len(overlay._reads_idx)

    def test_kernel_read_log_missing_an_id_is_detected(self, monkeypatch):
        if kernel.load() is None:
            pytest.skip("no C compiler: no kernel to audit")
        original = _Grid._kernel_search

        def lossy(self, *args, **kwargs):
            # Drop one consulted id from the kernel's returned read log:
            # the merge loop would miss a conflict on that node.
            result = original(self, *args, **kwargs)
            return result._replace(reads=list(result.reads)[1:])

        monkeypatch.setattr(_Grid, "_kernel_search", lossy)
        grid = DetailedGrid(make_design())
        grid.occupy((10, 4, 1), "n0")
        overlay = SanitizedGridOverlay(grid)
        with pytest.raises(SanitizerViolation, match="read footprint"):
            overlay.indexed_search(
                "n0", {(4, 4, 1)}, {(20, 4, 1)}, (0, 0, 30, 10), 10_000,
                stats={},
            )

    def test_kernel_counter_divergence_is_detected(self, monkeypatch):
        if kernel.load() is None:
            pytest.skip("no C compiler: no kernel to audit")
        original = _Grid._kernel_search

        def miscounting(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            return result._replace(evaluations=result.evaluations + 1)

        monkeypatch.setattr(_Grid, "_kernel_search", miscounting)
        overlay = SanitizedGridOverlay(DetailedGrid(make_design()))
        with pytest.raises(SanitizerViolation, match="cost_evaluations"):
            overlay.indexed_search(
                "n0", {(4, 4, 1)}, {(20, 4, 1)}, (0, 0, 30, 10), 10_000
            )

    def test_sanitized_search_runs_the_kernel_on_the_real_buffers(
        self, monkeypatch
    ):
        if kernel.load() is None:
            pytest.skip("no C compiler: no kernel to audit")
        seen = []
        original = kernel.Kernel.search

        def spy(self, grid_view, *args, **kwargs):
            seen.append(grid_view)
            return original(self, grid_view, *args, **kwargs)

        monkeypatch.setattr(kernel.Kernel, "search", spy)
        grid = DetailedGrid(make_design())
        overlay = SanitizedGridOverlay(grid)
        stats = {}
        path = overlay.indexed_search(
            "n0", {(4, 4, 1)}, {(20, 4, 1)}, (0, 0, 30, 10), 10_000,
            stats=stats,
        )
        assert path is not None
        assert seen == [grid._kernel_view]
        overlay.verify(stats)
        # Every kernel read was confirmed by the shadow oracle.
        assert stats["sanitize_nodes_checked"] >= len(overlay._reads_idx) > 0

    def test_undeclared_buffered_write_caught_at_verify(self):
        overlay = SanitizedGridOverlay(DetailedGrid(make_design()))
        # Inject a delta entry without declaring it in the write set —
        # the shape of a hypothetical code path mutating `local` behind
        # the overlay's back.
        overlay._owner.local[(9, 9, 1)] = "n0"
        with pytest.raises(SanitizerViolation, match="write footprint"):
            overlay.verify()


class TestRouterIntegration:
    def test_clean_speculative_run_counts_checks(self):
        flow = StitchAwareRouter(
            config=RouterConfig(workers=2, sanitize=True)
        ).route(quad_design())
        counters = flow.trace.aggregate_counters()
        assert counters["sanitize_violations"] == 0
        assert counters["sanitize_nets_checked"] >= 1
        assert counters["sanitize_nodes_checked"] >= 1
        assert flow.report.routed_nets == 4

    def test_injected_bypass_read_is_detected(self, monkeypatch):
        from repro.detailed.router import DetailedRouter

        original = DetailedRouter._connect_net

        def sneaky(self, design, grid, net, trunk_pieces, **kwargs):
            if isinstance(grid, SanitizedGridOverlay):
                # Peek at the live ownership dict without recording the
                # read in the overlay footprint.
                grid._owner._base.get((0, 0, 1))
            return original(self, design, grid, net, trunk_pieces, **kwargs)

        monkeypatch.setattr(DetailedRouter, "_connect_net", sneaky)
        with pytest.raises(SanitizerViolation, match="bypassed the overlay"):
            StitchAwareRouter(
                config=RouterConfig(workers=2, sanitize=True)
            ).route(quad_design())

    def test_speculative_overlays_run_the_indexed_search(self, monkeypatch):
        # The sanitized speculative searches must be the production
        # one.  Thread pool: the spy counts in this process.
        seen = []
        original = _Grid.indexed_search

        def spy(self, *args, **kwargs):
            if isinstance(self, SanitizedGridOverlay):
                seen.append(args[0])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(_Grid, "indexed_search", spy)
        flow = StitchAwareRouter(
            config=RouterConfig(workers=4, executor="thread", sanitize=True)
        ).route(mcnc_design("S9234", 0.02))
        counters = flow.trace.aggregate_counters()
        assert counters["sanitize_violations"] == 0
        assert counters["sanitize_nets_checked"] > 0
        assert len(seen) >= counters["sanitize_nets_checked"]

    def test_speculative_snapshots_run_the_indexed_search(self, monkeypatch):
        seen = []
        original = _Graph.astar_in_window

        def spy(self, *args, **kwargs):
            if isinstance(self, SanitizedGraphSnapshot):
                seen.append(args[:2])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(_Graph, "astar_in_window", spy)
        flow = StitchAwareRouter(
            config=RouterConfig(workers=4, executor="thread", sanitize=True)
        ).route(wide_quad_design())
        assert flow.trace.aggregate_counters()["sanitize_violations"] == 0
        assert len(seen) >= 4
        assert flow.report.routed_nets == 4

    def test_injected_owner_id_read_in_indexed_search_is_detected(
        self, monkeypatch
    ):
        original = _Grid.indexed_search

        def sneaky(self, *args, **kwargs):
            if isinstance(self, SanitizedGridOverlay):
                # Consult the base ownership-id array for a node the
                # search never logged in ``_reads_idx``.
                idx = next(
                    i for i in range(len(self._owner_ids))
                    if i not in self._reads_idx
                )
                self._owner_ids[idx]
            return original(self, *args, **kwargs)

        monkeypatch.setattr(_Grid, "indexed_search", sneaky)
        with pytest.raises(SanitizerViolation, match="bypassed the overlay"):
            StitchAwareRouter(
                config=RouterConfig(workers=4, sanitize=True)
            ).route(mcnc_design("S9234", 0.02))

    def test_injected_cost_cache_read_outside_window_is_detected(
        self, monkeypatch
    ):
        original = _Graph.astar_in_window

        def sneaky(self, src, dst, window, *args, **kwargs):
            if isinstance(self, SanitizedGraphSnapshot):
                # Price a line end on a tile outside the declared window.
                lo_x, lo_y, hi_x, hi_y = window
                outside = [
                    (i, j)
                    for i in range(self.nx)
                    for j in range(self.ny)
                    if not (lo_x <= i <= hi_x and lo_y <= j <= hi_y)
                ]
                if outside:
                    i, j = outside[0]
                    self._v_price[i][j]
            return original(self, src, dst, window, *args, **kwargs)

        monkeypatch.setattr(_Graph, "astar_in_window", sneaky)
        with pytest.raises(SanitizerViolation, match="undeclared demand"):
            StitchAwareRouter(
                config=RouterConfig(workers=4, sanitize=True)
            ).route(wide_quad_design())

    def test_injected_read_log_loss_in_a_real_run_is_detected(
        self, monkeypatch
    ):
        if kernel.load() is None:
            pytest.skip("no C compiler: no kernel to audit")
        original = _Grid._kernel_search

        def lossy(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            if isinstance(self, SanitizedGridOverlay) and result.reads:
                return result._replace(reads=list(result.reads)[:-1])
            return result

        monkeypatch.setattr(_Grid, "_kernel_search", lossy)
        with pytest.raises(SanitizerViolation, match="read footprint"):
            StitchAwareRouter(
                config=RouterConfig(workers=4, executor="thread", sanitize=True)
            ).route(mcnc_design("S9234", 0.02))

    def test_sanitize_off_does_not_wrap(self, monkeypatch):
        from repro.detailed.router import DetailedRouter

        seen = []
        original = DetailedRouter._connect_net

        def spy(self, design, grid, net, trunk_pieces, **kwargs):
            seen.append(type(grid).__name__)
            return original(self, design, grid, net, trunk_pieces, **kwargs)

        monkeypatch.setattr(DetailedRouter, "_connect_net", spy)
        StitchAwareRouter(config=RouterConfig(workers=2)).route(quad_design())
        assert "SanitizedGridOverlay" not in seen
