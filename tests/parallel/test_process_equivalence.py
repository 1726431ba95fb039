"""Cross-executor differential harness: process pool == serial, bytes.

The determinism contract of ``RouterConfig(executor="process")`` (see
``docs/parallelism.md``): routing state crosses the process boundary
through :class:`~repro.parallel.SharedStateChannel`, workers return
:class:`~repro.detailed.deltas.OverlayDelta` payloads instead of live overlays,
and the canonical-order fan-in on the submitting process makes the
serialized :class:`~repro.eval.RoutingReport` byte-identical to the
serial run on every gate circuit — with sanitize on, with streaming
on, and under forced speculative conflicts alike.

Every test also asserts the shared-memory ledger is empty afterwards:
no run may leak a segment (:func:`repro.parallel.active_segments`).
"""

import json

import pytest

from repro.analysis import audit_solution
from repro.benchmarks_gen import mcnc_design
from repro.config import RouterConfig
from repro.api import StitchAwareRouter
from repro.io import report_to_dict
from repro.observe import StreamingTracer, read_stream
from repro.parallel import BatchPlan, active_segments

CIRCUITS = {"S9234": 0.02, "S5378": 0.02, "S13207": 0.02}


@pytest.fixture(autouse=True)
def no_segment_leaks():
    """Every test must tear down all shared-memory segments it mapped."""
    assert active_segments() == frozenset()
    yield
    assert active_segments() == frozenset()


def route_flow(circuit, scale, *, workers=1, executor="thread", **config):
    design = mcnc_design(circuit, scale)
    router = StitchAwareRouter(
        config=RouterConfig(workers=workers, executor=executor, **config)
    )
    return router.route(design)


def report_doc(flow):
    """Serialized report with the sanctioned nondeterminism removed."""
    doc = report_to_dict(flow.report)
    doc.pop("cpu_seconds", None)
    doc.pop("trace", None)
    return doc


def canonical(doc):
    return json.dumps(doc, sort_keys=True).encode()


def routing_counters(trace):
    """Aggregate counters minus the scheduling/IPC bookkeeping."""
    return {
        k: v
        for k, v in trace.aggregate_counters().items()
        if not k.startswith(("parallel_", "perf_", "stream_"))
    }


@pytest.mark.parametrize("circuit", sorted(CIRCUITS))
class TestProcessSerialEquivalence:
    def test_process_report_byte_identical_to_serial(self, circuit):
        scale = CIRCUITS[circuit]
        serial = route_flow(circuit, scale)
        pooled = route_flow(circuit, scale, workers=4, executor="process")
        assert canonical(report_doc(pooled)) == canonical(report_doc(serial))
        assert routing_counters(pooled.trace) == routing_counters(
            serial.trace
        )

    def test_process_matches_thread_executor(self, circuit):
        scale = CIRCUITS[circuit]
        threaded = route_flow(circuit, scale, workers=4, executor="thread")
        pooled = route_flow(circuit, scale, workers=4, executor="process")
        assert canonical(report_doc(pooled)) == canonical(
            report_doc(threaded)
        )
        assert routing_counters(pooled.trace) == routing_counters(
            threaded.trace
        )


class TestProcessPoolActuallyUsed:
    """The contract must not hold vacuously: state really was shipped."""

    def test_batches_ran_and_state_was_published(self):
        flow = route_flow("S9234", 0.02, workers=4, executor="process")
        counters = flow.trace.aggregate_counters()
        assert counters.get("parallel_batches", 0) > 0
        assert counters.get("parallel_tasks", 0) > 0
        assert counters.get("parallel_ipc_publishes", 0) > 0
        assert counters.get("parallel_ipc_publish_bytes", 0) > 0

    def test_trace_meta_records_pool_kind(self):
        flow = route_flow("S9234", 0.02, workers=4, executor="process")
        assert flow.trace.meta["executor"] == "process"


class TestSanitizedProcessRun:
    def test_sanitize_on_process_pool_is_clean_and_identical(self):
        serial = route_flow("S5378", 0.02, sanitize=True)
        pooled = route_flow(
            "S5378", 0.02, workers=4, executor="process", sanitize=True
        )
        assert canonical(report_doc(pooled)) == canonical(report_doc(serial))
        counters = pooled.trace.aggregate_counters()
        assert counters.get("sanitize_violations", 0) == 0


class TestStreamedProcessRun:
    def test_streamed_process_run_replays_byte_identical(self, tmp_path):
        path = tmp_path / "run.ndjson"
        design = mcnc_design("S9234", 0.02)
        config = RouterConfig(workers=4, executor="process", profile="full")
        flow = StitchAwareRouter(config=config).route(
            design, tracer=StreamingTracer(path)
        )
        assert flow.trace is not None
        assert read_stream(path).to_json() == flow.trace.to_json()

    def test_streamed_process_report_matches_plain_serial(self, tmp_path):
        serial = route_flow("S9234", 0.02)
        design = mcnc_design("S9234", 0.02)
        config = RouterConfig(workers=4, executor="process", profile="full")
        pooled = StitchAwareRouter(config=config).route(
            design, tracer=StreamingTracer(tmp_path / "run.ndjson")
        )
        assert canonical(report_doc(pooled)) == canonical(report_doc(serial))
        assert routing_counters(pooled.trace) == routing_counters(
            serial.trace
        )


class TestProcessAudit:
    def test_audit_clean_on_process_solution(self):
        flow = route_flow("S9234", 0.02, workers=4, executor="process")
        report = audit_solution(
            flow.detailed_result, flow.report, flow.global_result
        )
        assert report.ok, [f.message for f in report.findings]


class TestProcessForcedConflicts:
    """Collapse the plan to one batch under the process executor.

    Conflicting nets are re-routed serially on the submitting process
    against the *live* state; the detailed grid's journal must carry
    those repairs to the workers before the next batch, keeping the
    output byte-identical.
    """

    @staticmethod
    def _single_batch_planner(items, rect_of, expand=0, cell=32):
        return BatchPlan(batches=[list(items)], expand=expand)

    def test_conflicts_stay_serial_equivalent(self, monkeypatch):
        import repro.detailed.router as detailed_router
        import repro.globalroute.router as global_router

        serial = route_flow("S5378", 0.02)
        monkeypatch.setattr(
            global_router, "plan_batches", self._single_batch_planner
        )
        monkeypatch.setattr(
            detailed_router, "plan_batches", self._single_batch_planner
        )
        forced = route_flow("S5378", 0.02, workers=4, executor="process")
        assert canonical(report_doc(forced)) == canonical(report_doc(serial))
        counters = forced.trace.aggregate_counters()
        assert counters.get("parallel_conflicts", 0) > 0
