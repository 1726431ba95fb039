"""The compiled search kernel's build, fallback and thread safety.

Covers the operational side of :mod:`repro.detailed.kernel`: nothing is
built or loaded at import, a missing or failing compiler falls back to
the Python reference loop with one logged diagnostic and identical
routing, the build cache is keyed and written atomically, and searches
on distinct overlays running concurrently (the kernel releases the
GIL) equal the same searches run serially.
"""

import logging
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.api import StitchAwareRouter
from repro.benchmarks_gen import mcnc_design
from repro.config import RouterConfig
from repro.detailed import DetailedGrid, kernel
from repro.detailed.search import astar_connect
from repro.geometry import Point
from repro.layout import Design, Net, Netlist, Pin, Technology

SRC = Path(kernel.__file__).resolve().parents[2]


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A never-tried loader over an empty build cache."""
    monkeypatch.setattr(kernel, "_LOADER", kernel._Loader())
    monkeypatch.setenv(kernel.CACHE_ENV, str(tmp_path / "cache"))
    return tmp_path / "cache"


def route_s9234(profile="off"):
    flow = StitchAwareRouter(config=RouterConfig(profile=profile)).route(
        mcnc_design("S9234", 0.02)
    )
    row = dict(flow.report.row())
    row.pop("cpu_s")
    return flow, row


def test_import_and_grid_build_neither_build_nor_load():
    code = (
        "import repro, repro.detailed\n"
        "from repro.benchmarks_gen import mcnc_design\n"
        "from repro.detailed import DetailedGrid, kernel\n"
        "DetailedGrid(mcnc_design('S9234', 0.02))\n"
        "print(kernel._LOADER.tried)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_missing_compiler_falls_back_with_identical_routing(
    fresh_loader, monkeypatch, caplog
):
    if kernel.load() is None:
        pytest.skip("no C compiler: nothing to compare the fallback with")
    compiled, compiled_row = route_s9234(profile="counters")
    assert compiled.trace.meta["detailed_search"] == "c"

    monkeypatch.setattr(kernel, "_LOADER", kernel._Loader())
    monkeypatch.setenv(kernel.CACHE_ENV, str(fresh_loader.parent / "empty"))
    monkeypatch.setattr(kernel, "find_compiler", lambda: None)
    with caplog.at_level(logging.WARNING, logger=kernel.__name__):
        fallback, fallback_row = route_s9234(profile="counters")
        route_s9234()
    diagnostics = [r for r in caplog.records if r.name == kernel.__name__]
    assert len(diagnostics) == 1  # logged once per process
    message = diagnostics[0].getMessage()
    assert "kernel unavailable" in message and "no C compiler" in message
    assert "\n" not in message
    assert fallback.trace.meta["detailed_search"] == "python"
    assert fallback_row == compiled_row

    def counters(flow):
        agg = flow.trace.aggregate_counters()
        agg.pop("perf_search_s")
        return agg

    assert counters(fallback) == counters(compiled)


def test_failing_compiler_is_a_diagnostic_not_an_error(
    fresh_loader, monkeypatch, caplog
):
    monkeypatch.setattr(kernel, "find_compiler", lambda: "false")  # exits 1
    with caplog.at_level(logging.WARNING, logger=kernel.__name__):
        assert kernel.load() is None
    assert "false failed" in caplog.records[-1].getMessage()
    assert not list(fresh_loader.glob("*.tmp"))


def test_build_cache_is_keyed_and_written_atomically(fresh_loader, monkeypatch):
    if kernel.find_compiler() is None:
        pytest.skip("no C compiler")
    lib = kernel.load()
    assert lib is not None
    built = list(fresh_loader.iterdir())
    assert [p.name for p in built] == [f"astar_kernel-{kernel.cache_key()}.so"]
    key = kernel.cache_key()
    monkeypatch.setattr(kernel, "CFLAGS", kernel.CFLAGS + ("-g",))
    assert kernel.cache_key() != key
    # A second loader reuses the cached object without compiling.
    monkeypatch.setattr(kernel, "CFLAGS", kernel.CFLAGS[:-1])
    monkeypatch.setattr(kernel, "_LOADER", kernel._Loader())
    monkeypatch.setattr(kernel, "find_compiler", lambda: None)
    assert kernel.load() is not None


def test_flags_keep_float_semantics():
    assert "-ffp-contract=off" in kernel.CFLAGS
    assert not any("fast-math" in f or "march" in f for f in kernel.CFLAGS)


def _wall_design():
    config = RouterConfig(stitch_spacing=7, tile_size=7, escape_width=2)
    nets = [
        Net("n0", (Pin("a", Point(1, 1), 1), Pin("b", Point(38, 22), 1))),
        Net("n1", (Pin("c", Point(6, 12), 1), Pin("d", Point(30, 12), 1))),
        Net("n2", (Pin("e", Point(2, 22), 1), Pin("f", Point(37, 2), 1))),
    ]
    return Design(
        name="threads",
        width=40,
        height=24,
        technology=Technology(3),
        netlist=Netlist(nets),
        config=config,
    )


def test_concurrent_overlay_searches_equal_serial():
    if kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be built here")
    grid = DetailedGrid(_wall_design())
    for x in range(4, 34):
        grid.occupy((x, 12, 1), "n1")
        grid.occupy((x, 12, 2), "n1")
    jobs = [
        ("n0", {(1, 1, 1)}, {(38, 22, 1)}, None, {(20, 12, 2)}),
        ("n2", {(2, 22, 1)}, {(37, 2, 1)}, 1.5, None),
    ]

    def search_all(overlay, job, rounds):
        net, sources, targets, penalty, release = job
        if release:
            for node in release:
                overlay.release(node, "n1")
        out = []
        for _ in range(rounds):
            stats = {}
            path = astar_connect(
                overlay, net, sources, targets, (0, 0, 39, 23), 100_000,
                foreign_penalty=penalty, stats=stats, profile=True,
            )
            stats.pop("perf_search_s")
            out.append((path, stats))
        return out, overlay.read_nodes, overlay.cost_evaluations

    # More threads than cores, switching often: each thread's kernel
    # workspace and overlay log must stay its own.
    jobs = jobs * 2
    rounds = 40
    serial = [search_all(grid.speculative_overlay(), job, rounds) for job in jobs]
    results = [None] * len(jobs)
    barrier = threading.Barrier(len(jobs))

    def worker(i):
        overlay = grid.speculative_overlay()
        barrier.wait()
        results[i] = search_all(overlay, jobs[i], rounds)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == serial
    assert all(path is not None for out, _reads, _evals in serial for path, _ in out)


def test_node_outside_the_grid_is_rejected_before_any_read():
    if kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be built here")
    grid = DetailedGrid(_wall_design())
    with pytest.raises(ValueError, match="outside the grid"):
        astar_connect(grid, "n0", {(40, 0, 1)}, {(1, 1, 1)}, (0, 0, 39, 23), 100)
