"""Flow-level differential: the compiled search must equal the reference.

The router runs one detailed search, :meth:`DetailedGrid.indexed_search`
(reached through :func:`~repro.detailed.search.astar_connect`), whose
heap loop is the compiled kernel.  The plain
:func:`~repro.detailed.search.reference_astar` over tuple nodes is kept
as its specification.  Swapping the reference into the router must
leave every serialized :class:`~repro.eval.RoutingReport` byte-identical
(after stripping wall-time fields) and every deterministic trace
counter unchanged — across circuits, worker counts, the sanitizer and
the profiling modes, i.e. over every rip-up, foreign-penalty and
blocked-set search the real flow issues.  The small-grid property test
is ``tests/detailed/test_indexed_search.py``; this file holds the two
searches to each other on whole routing runs, and the production
solutions to the independent geometry audit.
"""

import json

import pytest

import repro.detailed.router as detailed_router
from repro.analysis import audit_solution
from repro.api import RouterConfig, StitchAwareRouter
from repro.benchmarks_gen import mcnc_design
from repro.detailed.search import reference_astar
from repro.io import report_to_dict

CIRCUITS = {"S9234": 0.02, "S5378": 0.02, "S13207": 0.02}


def route_flow(circuit, scale, **config_kwargs):
    design = mcnc_design(circuit, scale)
    router = StitchAwareRouter(config=RouterConfig(**config_kwargs))
    return router.route(design)


def route_reference(circuit, scale, **config_kwargs):
    """The same flow with the router's detailed search swapped for the
    plain reference loop (production never calls it)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detailed_router, "astar_connect", reference_astar)
        return route_flow(circuit, scale, **config_kwargs)


def canonical_report(flow):
    doc = report_to_dict(flow.report)
    # Wall times are the only sanctioned difference between runs.
    doc.pop("cpu_seconds", None)
    doc.pop("trace", None)
    return json.dumps(doc, sort_keys=True).encode()


def assert_counters_match(reference_trace, indexed_trace):
    # perf_search_s is wall time, recorded by the production search
    # only: the one counter the two runs cannot share.
    indexed = indexed_trace.aggregate_counters()
    indexed.pop("perf_search_s", None)
    assert reference_trace.aggregate_counters() == indexed


@pytest.mark.parametrize("circuit", sorted(CIRCUITS))
class TestEngineEquivalence:
    def test_serial_reports_byte_identical(self, circuit):
        scale = CIRCUITS[circuit]
        ref = route_reference(circuit, scale)
        arr = route_flow(circuit, scale)
        assert canonical_report(ref) == canonical_report(arr)
        assert_counters_match(ref.trace, arr.trace)
        assert "engine" not in arr.trace.meta

    def test_parallel_array_equals_serial_object(self, circuit):
        """workers=4 on the indexed search equals the serial reference."""
        scale = CIRCUITS[circuit]
        ref = route_reference(circuit, scale)
        arr = route_flow(circuit, scale, workers=4)
        assert canonical_report(ref) == canonical_report(arr)
        routing = {
            k: v
            for k, v in arr.trace.aggregate_counters().items()
            if not k.startswith("parallel_")
        }
        assert routing == ref.trace.aggregate_counters()

    def test_array_solution_survives_independent_audit(self, circuit):
        scale = CIRCUITS[circuit]
        arr = route_flow(circuit, scale)
        report = audit_solution(
            arr.detailed_result, arr.report, arr.global_result
        )
        assert report.ok, [f.message for f in report.findings]


def test_sanitized_parallel_run_matches_across_engines():
    """sanitize=True runs the indexed search under audit, identically.

    The sanitized overlays wrap the flat ownership/pin arrays and the
    cost caches in auditing proxies but run the same indexed loops,
    so the report must equal the serial reference run byte for byte.
    """
    ref = route_reference("S5378", 0.02)
    arr = route_flow("S5378", 0.02, workers=4, sanitize=True)
    assert canonical_report(ref) == canonical_report(arr)


def test_auto_engine_resolves_to_array_when_numpy_present():
    from repro.config import Engine, resolve_engine

    with pytest.warns(DeprecationWarning):
        assert resolve_engine("auto") is Engine.ARRAY
    with pytest.warns(DeprecationWarning):
        config = RouterConfig(engine="auto")
    flow = StitchAwareRouter(config=config).route(mcnc_design("S9234", 0.02))
    assert canonical_report(flow) == canonical_report(
        route_flow("S9234", 0.02)
    )


class TestProfiledEquivalence:
    """The contract survives profiling: perf_* counters are additive.

    ``RouterConfig(profile="counters")`` instruments both searches; the
    differential promise extends to it in two parts — the routing
    counters still match exactly (strip ``perf_*``, mirroring the
    ``parallel_*`` stripping above), and the heap-traffic counters
    (step-identical by construction) must agree with each other too.
    """

    def test_profiled_reports_byte_identical(self):
        ref = route_reference("S9234", 0.02, profile="counters")
        arr = route_flow("S9234", 0.02, profile="counters")
        assert canonical_report(ref) == canonical_report(arr)
        assert arr.trace.meta["profile"] == "counters"
        assert_counters_match(ref.trace, arr.trace)
        for name in ("perf_heap_pushes", "perf_heap_pops"):
            assert arr.trace.aggregate_counters()[name] > 0, name

    def test_profiled_routing_counters_match_unprofiled(self):
        plain = route_flow("S5378", 0.02)
        profiled = route_flow("S5378", 0.02, profile="counters")
        routing = {
            k: v
            for k, v in profiled.trace.aggregate_counters().items()
            if not k.startswith("perf_")
        }
        assert routing == plain.trace.aggregate_counters()

    def test_full_profile_keeps_byte_identity(self):
        ref = route_reference("S5378", 0.02, profile="full")
        arr = route_flow("S5378", 0.02, workers=4, profile="full")
        assert canonical_report(ref) == canonical_report(arr)
