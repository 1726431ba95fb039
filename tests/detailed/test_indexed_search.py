"""Differential property test: ``indexed_search`` against the reference.

:meth:`DetailedGrid.indexed_search` is the detailed router's only
search; :func:`~repro.detailed.search.reference_astar` is the same
Eq. (10) A* written plainly over tuple nodes and
:meth:`DetailedGrid.neighbors`.  Hypothesis draws small grids with
random ownership and pins, speculative overlays carrying claims,
evictions and release tombstones, ``blocked`` sets, foreign penalties
and tie-heavy cost weights, then runs both searches on identical
copies.  Every observable must agree: the path, ``cost_evaluations``,
the ``astar_*`` / ``perf_heap_*`` counters, and an overlay's
``read_nodes`` / ``write_nodes`` footprint (which the parallel merge
loop decides conflicts on).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RouterConfig
from repro.detailed import DetailedGrid
from repro.detailed.overlay import GridOverlay
from repro.detailed.search import astar_connect, reference_astar
from repro.geometry import Point
from repro.layout import Design, Net, Netlist, Pin, Technology

NETS = ("n0", "n1", "n2")


@st.composite
def scenarios(draw):
    width = draw(st.integers(6, 18))
    height = draw(st.integers(4, 14))
    layers = draw(st.integers(2, 4))
    spacing = draw(st.integers(5, 9))
    # Small integer weights make equal-cost paths (heap ties) common.
    config = RouterConfig(
        stitch_spacing=spacing,
        epsilon=draw(st.integers(0, 1)),
        escape_width=draw(st.integers(0, 2)),
        tile_size=spacing,
        alpha=float(draw(st.integers(1, 2))),
        beta=float(draw(st.integers(0, 3))),
        gamma=float(draw(st.integers(0, 2))),
    )
    xs, ys = st.integers(0, width - 1), st.integers(0, height - 1)
    node = st.tuples(xs, ys, st.integers(1, layers))
    point_pin = st.tuples(xs, ys)
    nets = []
    for name in NETS:
        (ax, ay), (bx, by) = draw(point_pin), draw(point_pin)
        pins = (Pin(name + "a", Point(ax, ay), 1), Pin(name + "b", Point(bx, by), 1))
        nets.append(Net(name, pins))
    design = Design(
        name="prop",
        width=width,
        height=height,
        technology=Technology(layers),
        netlist=Netlist(nets),
        config=config,
    )
    owned = draw(st.lists(st.tuples(node, st.sampled_from(NETS)), max_size=40))
    pins = draw(st.lists(st.integers(0, 39), max_size=8))
    # Overlay operations: (kind, node, net) replayed on a fresh overlay.
    overlay_ops = draw(
        st.none()
        | st.none()
        | st.lists(
            st.tuples(
                st.sampled_from(("occupy", "force", "release")),
                node,
                st.sampled_from(NETS),
            ),
            max_size=15,
        )
    )
    net = draw(st.sampled_from(NETS))
    # Mostly a few endpoints (long searches, many ties), sometimes 16+
    # so the vectorized source/target setup branches run too; empty
    # sets exercise the shared preamble.
    sizes = st.sampled_from((0, 1, 1, 1, 2, 3, 17))
    sources = draw(st.sets(node, min_size=0, max_size=draw(sizes)))
    targets = draw(st.sets(node, min_size=0, max_size=draw(sizes)))
    if draw(st.booleans()):
        # Sources two steps apart: their common neighbour is reached
        # from both sides at equal cost, the exact-tie relaxation case.
        dx, dy = draw(st.sampled_from(((2, 0), (0, 2))))
        sources |= {
            (min(x + dx, width - 1), min(y + dy, height - 1), z)
            for x, y, z in sources
        }
    if draw(st.booleans()):
        lo_x, lo_y, hi_x, hi_y = 0, 0, width - 1, height - 1
    else:
        lo_x, hi_x = sorted(draw(st.tuples(xs, xs)))
        lo_y, hi_y = sorted(draw(st.tuples(ys, ys)))
    # None is drawn often: without an overlay, a blocked set and a
    # penalty the grid runs its specialized base-grid loop.
    blocked = draw(st.sampled_from((None, None, "set")))
    if blocked is not None:
        blocked = draw(st.sets(node, max_size=15))
    foreign_penalty = draw(st.sampled_from((None, None, 0.0, 1.0, 2.5)))
    limit = draw(st.sampled_from((3, 40, 100_000)))
    stitch_aware = draw(st.booleans())
    return {
        "design": design,
        "stitch_aware": stitch_aware,
        "owned": owned,
        "pins": pins,
        "overlay_ops": overlay_ops,
        "args": (net, sources, targets, (lo_x, lo_y, hi_x, hi_y), limit),
        "blocked": blocked,
        "foreign_penalty": foreign_penalty,
    }


def build(scenario):
    """A fresh grid (or overlay) in the scenario's state."""
    grid = DetailedGrid(scenario["design"], stitch_aware=scenario["stitch_aware"])
    for node, net in scenario["owned"]:
        if not grid.is_pin(node):
            grid.force_occupy(node, net)
    for index in scenario["pins"]:
        if index < len(scenario["owned"]):
            grid.mark_pin(scenario["owned"][index][0])
    ops = scenario["overlay_ops"]
    if ops is None:
        return grid
    overlay = GridOverlay(grid)
    for kind, node, net in ops:
        if kind == "occupy":
            if overlay.owner(node) in (None, net):
                overlay.occupy(node, net)
        elif kind == "force":
            if not overlay.is_pin(node):
                overlay.force_occupy(node, net)
        else:
            current = overlay.owner(node)
            if current is not None:
                overlay.release(node, current)
    return overlay


def run(search, scenario):
    """Every observable of one search on a fresh copy of the scenario."""
    grid = build(scenario)
    before = None
    if isinstance(grid, GridOverlay):
        before = (set(grid.read_nodes), set(grid.write_nodes))
    stats = {}
    path = search(
        grid,
        *scenario["args"],
        blocked=scenario["blocked"],
        foreign_penalty=scenario["foreign_penalty"],
        stats=stats,
        profile=True,
    )
    footprint = None
    if before is not None:
        footprint = (grid.read_nodes, grid.write_nodes, before)
    return path, grid.cost_evaluations, stats, footprint


@settings(max_examples=400, deadline=None)
@given(scenarios())
def test_indexed_search_matches_reference(scenario):
    assert run(astar_connect, scenario) == run(reference_astar, scenario)


def test_base_grid_fast_loop_and_overlay_loop_agree_with_reference():
    """Deterministic anchor: the specialized base-grid loop (no overlay,
    no penalty, no blocked set) and the general overlay loop both
    reproduce the reference on a routed toy grid."""
    config = RouterConfig(stitch_spacing=7, tile_size=7, escape_width=2)
    design = Design(
        name="anchor",
        width=22,
        height=9,
        technology=Technology(3),
        netlist=Netlist(
            [
                Net("n0", (Pin("a", Point(1, 1), 1), Pin("b", Point(20, 7), 1))),
                Net("n1", (Pin("c", Point(6, 4), 1), Pin("d", Point(16, 4), 1))),
            ]
        ),
        config=config,
    )
    scenario = {
        "design": design,
        "stitch_aware": True,
        "owned": [((x, 4, 1), "n1") for x in range(6, 17)],
        "pins": [0, 10],
        "overlay_ops": None,
        "args": ("n0", {(1, 1, 1)}, {(20, 7, 1)}, (0, 0, 21, 8), 100_000),
        "blocked": None,
        "foreign_penalty": None,
    }
    base = run(astar_connect, scenario)
    assert base[0] is not None and base[2]["astar_expansions"] > 0
    assert base == run(reference_astar, scenario)
    scenario["overlay_ops"] = [
        ("release", (10, 4, 1), "n1"),
        ("force", (11, 4, 1), "n0"),
    ]
    scenario["foreign_penalty"] = 2.5
    scenario["blocked"] = {(12, 5, 2)}
    overlay = run(astar_connect, scenario)
    assert overlay[3] is not None and overlay[3][0]
    assert overlay == run(reference_astar, scenario)
