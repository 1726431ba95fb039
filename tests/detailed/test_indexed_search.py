"""Differential property test: the compiled search kernel against the reference.

:meth:`DetailedGrid.indexed_search` runs the detailed router's heap
loop in the compiled kernel (:mod:`repro.detailed.kernel`);
:func:`~repro.detailed.search.reference_astar` is the same Eq. (10) A*
written plainly over tuple nodes and :meth:`DetailedGrid.neighbors`.
Hypothesis draws small grids with random ownership and pins in four
variants — base grid or speculative overlay (claims, evictions and
release tombstones), each with or without a foreign penalty and a
``blocked`` set — plus tie-heavy cost weights, large endpoint sets,
die-edge windows and expansion limits, then runs both searches on
identical copies.  Every observable must agree: the path,
``cost_evaluations``, the ``astar_*`` / ``perf_heap_*`` counters, and
an overlay's ``read_nodes`` / ``write_nodes`` footprint (which the
parallel merge loop decides conflicts on).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RouterConfig
from repro.detailed import DetailedGrid, kernel
from repro.detailed.overlay import GridOverlay
from repro.detailed.search import astar_connect, reference_astar
from repro.geometry import Point
from repro.layout import Design, Net, Netlist, Pin, Technology

NETS = ("n0", "n1", "n2")

#: (overlay, constrained): base grid or speculative overlay, each with
#: or without a foreign penalty and a ``blocked`` set.
VARIANTS = [(False, False), (False, True), (True, False), (True, True)]


@pytest.fixture(autouse=True)
def compiled_kernel():
    """These tests compare the kernel itself, not the fallback."""
    if kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be built here")


def toy_design(width, height, layers, config, nets):
    return Design(
        name="prop",
        width=width,
        height=height,
        technology=Technology(layers),
        netlist=Netlist(nets),
        config=config,
    )


@st.composite
def scenarios(draw, overlay, constrained):
    width = draw(st.integers(6, 18))
    height = draw(st.integers(4, 14))
    layers = draw(st.integers(2, 4))
    spacing = draw(st.integers(5, 9))
    # Small integer weights make equal-cost paths (heap ties) common;
    # tenths make near-ties whose float sums differ in the last ulp,
    # where only the 1e-12 relaxation slack keeps the searches equal.
    if draw(st.booleans()):
        alpha, beta, gamma = (
            float(draw(st.integers(lo, hi))) for lo, hi in ((1, 2), (0, 3), (0, 2))
        )
    else:
        alpha, beta, gamma = (
            draw(st.sampled_from(choices))
            for choices in ((0.1, 0.3, 0.7), (0.0, 0.1, 0.2), (0.0, 0.1, 0.2, 0.3))
        )
    config = RouterConfig(
        stitch_spacing=spacing,
        epsilon=draw(st.integers(0, 1)),
        escape_width=draw(st.integers(0, 2)),
        tile_size=spacing,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
    )
    xs, ys = st.integers(0, width - 1), st.integers(0, height - 1)
    node = st.tuples(xs, ys, st.integers(1, layers))
    point_pin = st.tuples(xs, ys)
    nets = []
    for name in NETS:
        (ax, ay), (bx, by) = draw(point_pin), draw(point_pin)
        pins = (Pin(name + "a", Point(ax, ay), 1), Pin(name + "b", Point(bx, by), 1))
        nets.append(Net(name, pins))
    design = toy_design(width, height, layers, config, nets)
    owned = draw(st.lists(st.tuples(node, st.sampled_from(NETS)), max_size=40))
    pins = draw(st.lists(st.integers(0, 39), max_size=8))
    # Overlay operations: (kind, node, net) replayed on a fresh overlay.
    overlay_ops = None
    if overlay:
        overlay_ops = draw(
            st.lists(
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
    # (whole rip-up components); empty sets exercise the preamble.
    sizes = st.sampled_from((0, 1, 1, 1, 2, 3, 16, 20))
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
    window_kind = draw(st.sampled_from(("die", "random", "edge")))
    if window_kind == "die":
        lo_x, lo_y, hi_x, hi_y = 0, 0, width - 1, height - 1
    else:
        lo_x, hi_x = sorted(draw(st.tuples(xs, xs)))
        lo_y, hi_y = sorted(draw(st.tuples(ys, ys)))
        if window_kind == "edge":
            # Clamp one or two sides onto the die boundary.
            side = draw(st.sampled_from(("lo", "hi", "both")))
            if side in ("lo", "both"):
                lo_x, lo_y = 0, 0
            if side in ("hi", "both"):
                hi_x, hi_y = width - 1, height - 1
    blocked = foreign_penalty = None
    if constrained:
        blocked = draw(st.sets(node, max_size=15))
        foreign_penalty = draw(st.sampled_from((0.0, 0.1, 1.0, 2.5)))
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
    # Wall time is the one profiled value the searches cannot share;
    # the kernel records it for every heap loop it runs.
    seconds = stats.pop("perf_search_s", None)
    if search is astar_connect and "astar_expansions" in stats:
        assert seconds is not None and seconds >= 0.0
    footprint = None
    if before is not None:
        footprint = (grid.read_nodes, grid.write_nodes, before)
    return path, grid.cost_evaluations, stats, footprint


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_indexed_search_matches_reference(data):
    # Every example draws one scenario per variant, so all four are
    # compared on every run.
    for overlay, constrained in VARIANTS:
        scenario = data.draw(scenarios(overlay, constrained))
        assert run(astar_connect, scenario) == run(reference_astar, scenario)


def anchor_scenario():
    """A routed toy grid: n1 owns a wall at y=4 that n0 must cross."""
    config = RouterConfig(stitch_spacing=7, tile_size=7, escape_width=2)
    design = toy_design(
        22,
        9,
        3,
        config,
        [
            Net("n0", (Pin("a", Point(1, 1), 1), Pin("b", Point(20, 7), 1))),
            Net("n1", (Pin("c", Point(6, 4), 1), Pin("d", Point(16, 4), 1))),
        ],
    )
    return {
        "design": design,
        "stitch_aware": True,
        "owned": [((x, 4, 1), "n1") for x in range(6, 17)],
        "pins": [0, 10],
        "overlay_ops": None,
        "args": ("n0", {(1, 1, 1)}, {(20, 7, 1)}, (0, 0, 21, 8), 100_000),
        "blocked": None,
        "foreign_penalty": None,
    }


def assert_agree(scenario):
    kernel_run = run(astar_connect, scenario)
    assert kernel_run == run(reference_astar, scenario)
    return kernel_run


def test_base_grid_and_overlay_agree_with_reference():
    """Deterministic anchor: a base-grid search and a penalized,
    blocked overlay search both reproduce the reference."""
    scenario = anchor_scenario()
    base = assert_agree(scenario)
    assert base[0] is not None and base[2]["astar_expansions"] > 0
    scenario["overlay_ops"] = [
        ("release", (10, 4, 1), "n1"),
        ("force", (11, 4, 1), "n0"),
    ]
    scenario["foreign_penalty"] = 2.5
    scenario["blocked"] = {(12, 5, 2)}
    overlay = assert_agree(scenario)
    assert overlay[3] is not None and overlay[3][0]


@pytest.mark.parametrize("overlay", [False, True])
def test_large_endpoint_sets(overlay):
    """16+ sources and targets: whole components on both sides."""
    scenario = anchor_scenario()
    scenario["args"] = (
        "n0",
        {(x, y, 1) for x in range(0, 4) for y in range(0, 5)},
        {(x, y, 2) for x in range(17, 22) for y in range(6, 9)},
        (0, 0, 21, 8),
        100_000,
    )
    if overlay:
        scenario["overlay_ops"] = [("release", (9, 4, 1), "n1")]
    result = assert_agree(scenario)
    assert result[0] is not None


@pytest.mark.parametrize(
    "window", [(0, 0, 21, 8), (0, 0, 12, 8), (10, 0, 21, 8), (0, 3, 21, 8)]
)
def test_windows_touching_the_die_edge(window):
    scenario = anchor_scenario()
    net, sources, targets, _window, limit = scenario["args"]
    scenario["args"] = (net, sources, targets, window, limit)
    scenario["foreign_penalty"] = 1.0
    assert_agree(scenario)


@pytest.mark.parametrize("limit", [0, 1, 5, 25])
def test_expansion_limit_hit(limit):
    scenario = anchor_scenario()
    net, sources, targets, window, _limit = scenario["args"]
    scenario["args"] = (net, sources, targets, window, limit)
    path, _evals, stats, _footprint = assert_agree(scenario)
    assert path is None
    assert stats["astar_expansions"] == limit + 1


def test_overlay_tombstone_frees_a_base_owned_node():
    """A release in the overlay opens n1's base-owned wall there: the
    kernel must read the overlay's tombstone, not the base id."""
    scenario = anchor_scenario()
    # Every y move happens on the vertical layer 2, so a wall of n1
    # wire across layer 2 at y=4 separates n0's endpoints.
    wall = [(x, 4, 2) for x in range(22)]
    scenario["owned"] = [(node, "n1") for node in wall]
    scenario["pins"] = []
    assert run(astar_connect, scenario)[0] is None  # walled off on the base
    scenario["overlay_ops"] = [("release", (9, 4, 2), "n1")]
    path, _evals, _stats, footprint = assert_agree(scenario)
    assert path is not None and (9, 4, 2) in path
    reads, writes, _before = footprint
    assert (9, 4, 2) in reads and (9, 4, 2) in writes
    assert len(set(wall) & reads) > 1


def test_relaxation_slack_on_float_near_ties():
    """Tenth-valued steps make two routes to one node sum to costs a
    last ulp apart; only the shared 1e-12 slack keeps the kernel from
    re-relaxing them (without it the kernel pushes one extra entry
    here).  The target is blocked, so the search floods its window."""
    config = RouterConfig(
        stitch_spacing=5, tile_size=5, escape_width=1, alpha=0.1, beta=0.0, gamma=0.1
    )
    nets = [Net("n0", (Pin("a", Point(0, 2), 1), Pin("b", Point(0, 0), 1)))]
    scenario = {
        "design": toy_design(11, 4, 2, config, nets),
        "stitch_aware": True,
        "owned": [],
        "pins": [],
        "overlay_ops": None,
        "args": ("n0", {(0, 2, 1)}, {(0, 0, 1)}, (0, 0, 10, 3), 100_000),
        "blocked": {(0, 0, 1)},
        "foreign_penalty": 0.0,
    }
    path, _evals, stats, _footprint = assert_agree(scenario)
    assert path is None and stats["perf_heap_pops"] > 0
