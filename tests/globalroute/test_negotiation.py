"""Tests for negotiated rip-up behaviour in global routing."""


from repro.globalroute import GlobalGraph, GlobalRouter
from tests.globalroute.test_router import design_with_nets, two_pin


class TestNegotiation:
    def test_history_grows_only_on_overflow(self):
        design = design_with_nets([two_pin("a", (1, 1), (55, 40))])
        router = GlobalRouter(stitch_aware=True)
        graph = GlobalGraph(design)
        graph.v_demand[1, 0] = graph.v_capacity[1, 0] + 1
        graph.vertex_demand[1, 0] = graph.vertex_capacity[1, 0] + 1
        router._bump_history(graph)
        assert graph.v_history[1, 0] > 0
        assert graph.vertex_history[1, 0] > 0
        assert graph.h_history[0, 0] == 0

    def test_baseline_ignores_vertex_history(self):
        design = design_with_nets([two_pin("a", (1, 1), (55, 40))])
        router = GlobalRouter(stitch_aware=False)
        graph = GlobalGraph(design)
        graph.vertex_demand[1, 0] = graph.vertex_capacity[1, 0] + 1
        router._bump_history(graph)
        assert graph.vertex_history[1, 0] == 0

    def test_overflow_victims_detection(self):
        design = design_with_nets(
            [two_pin("a", (1, 1), (55, 1)), two_pin("b", (1, 20), (55, 20))]
        )
        router = GlobalRouter(stitch_aware=True)
        result = router.route(design)
        graph = result.graph
        # Force an artificial overflow on an edge net "a" uses.
        path = result.routes["a"].paths[0]
        key = graph.edge_between(path[0], path[1])
        kind, i, j = key
        if kind == "h":
            graph.h_capacity[i, j] = 0
        else:
            graph.v_capacity[i, j] = 0
        victims = router._overflow_victims(graph, result.routes)
        assert "a" in victims

    def test_zero_capacity_edges_avoided(self):
        """A fully blocked column boundary forces a detour."""
        design = design_with_nets([two_pin("a", (1, 1), (55, 1))])
        router = GlobalRouter(stitch_aware=True)
        graph = GlobalGraph(design)
        # Saturate the boundary between columns 1 and 2 at row 0
        # (through the mutator, which keeps the cost caches fresh).
        graph.add_edge_demand(("h", 1, 0), int(graph.h_capacity[1, 0]) * 3)
        path = router._astar(graph, (0, 0), (3, 0))
        assert path is not None
        assert not any(
            graph.edge_between(a, b) == ("h", 1, 0)
            for a, b in zip(path, path[1:])
        )
