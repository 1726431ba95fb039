"""The global graph's cost caches always equal the scalar kernels.

The maze search prices every step from ``_h_cost`` / ``_v_cost`` /
``_v_price``; the caches are only correct if every demand mutation,
history refresh, snapshot clone and shared-memory round trip leaves
each entry bit-identical to what the scalar Eq. (1)–(3) kernels compute
from the current arrays.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.globalroute import GlobalGraph, edge_cost_if_used
from repro.globalroute.cost import WL_WEIGHT, vertex_price
from tests.globalroute.test_router import design_with_nets, two_pin


def fresh_caches(graph):
    """The cache contents a from-scratch rebuild would produce."""
    nx, ny = graph.nx, graph.ny
    h = [
        [WL_WEIGHT + edge_cost_if_used(graph, ("h", i, j)) for j in range(ny)]
        for i in range(nx - 1)
    ]
    v = [
        [WL_WEIGHT + edge_cost_if_used(graph, ("v", i, j)) for j in range(ny - 1)]
        for i in range(nx)
    ]
    price = [[vertex_price(graph, (i, j)) for j in range(ny)] for i in range(nx)]
    return h, v, price


def caches(graph):
    return graph._h_cost, graph._v_cost, graph._v_price


def make_graph():
    design = design_with_nets([two_pin("a", (1, 1), (55, 40))], width=90, height=60)
    return GlobalGraph(design)


mutations = st.lists(
    st.tuples(
        st.sampled_from(("h", "v", "vertex")),
        st.integers(0, 5),
        st.integers(0, 3),
        st.integers(-3, 40),
    ),
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(mutations, st.booleans())
def test_mutators_keep_caches_exact(ops, bump_history):
    graph = make_graph()
    for kind, i, j, delta in ops:
        if kind == "vertex":
            graph.add_vertex_demand((i % graph.nx, j % graph.ny), delta)
        elif kind == "h":
            graph.add_edge_demand(("h", i % (graph.nx - 1), j % graph.ny), delta)
        else:
            graph.add_edge_demand(("v", i % graph.nx, j % (graph.ny - 1)), delta)
    if bump_history:
        graph.h_history[graph.h_demand > graph.h_capacity] += 0.5
        graph.vertex_history[graph.vertex_demand > graph.vertex_capacity] += 0.5
        graph.refresh_cost_cache()
    assert caches(graph) == fresh_caches(graph)
    snapshot = graph.snapshot()
    assert caches(snapshot) == caches(graph)
    snapshot.add_edge_demand(("h", 0, 0), 7)
    assert caches(snapshot) == fresh_caches(snapshot)
    assert caches(graph) == fresh_caches(graph)  # the clone is private


def test_shared_state_round_trip_is_exact():
    graph = make_graph()
    graph.add_edge_demand(("v", 1, 1), 9)
    graph.add_vertex_demand((2, 2), 5)
    worker = make_graph()
    worker.import_shared_state(
        {k: v.copy() for k, v in graph.shared_state_arrays().items()}
    )
    assert caches(worker) == caches(graph) == fresh_caches(graph)
