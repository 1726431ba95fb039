"""Flow-level streaming contracts: replay identity and profile purity.

Three promises from ``docs/observability.md`` are proven on a real
gate circuit (S9234 at the regression-gate scale):

* a streamed run's NDJSON events replay into a :class:`RunTrace`
  byte-identical to the trace the run itself froze — serial and under
  ``workers=4`` (the executor fans progress events in on the calling
  thread, so the stream stays canonically ordered);
* ``profile="off"`` leaves the trace byte-compatible with the
  committed (pre-profiling) baselines — zero-cost means *invisible*;
* ``profile="counters"`` adds only ``perf_*`` counters: stripping
  them (and the tracer's ``stream_*`` bookkeeping) recovers the
  off-mode trace exactly.
"""

import json
import pathlib

import pytest

from repro.benchmarks_gen import mcnc_design
from repro.config import RouterConfig
from repro.api import StitchAwareRouter
from repro.observe import StreamingTracer, read_stream

CIRCUIT, SCALE = "S9234", 0.02
BASELINE = (
    pathlib.Path(__file__).parents[2]
    / "benchmarks"
    / "baselines"
    / f"BENCH_{CIRCUIT}.json"
)


def route(workers=1, profile="off", tracer=None):
    design = mcnc_design(CIRCUIT, SCALE)
    config = RouterConfig(workers=workers, profile=profile)
    return StitchAwareRouter(config=config).route(design, tracer=tracer)


def strip_instrumentation(counters):
    return {
        k: v
        for k, v in counters.items()
        if not k.startswith(("perf_", "stream_"))
    }


class TestReplayIdentity:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_streamed_run_replays_byte_identical(self, tmp_path, workers):
        path = tmp_path / "run.ndjson"
        flow = route(
            workers=workers,
            profile="full",
            tracer=StreamingTracer(path),
        )
        assert flow.trace is not None
        assert read_stream(path).to_json() == flow.trace.to_json()

    def test_parallel_stream_carries_task_progress(self, tmp_path):
        path = tmp_path / "run.ndjson"
        route(workers=4, profile="full", tracer=StreamingTracer(path))
        events = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        tasks = [
            e for e in events
            if e["ev"] == "progress" and e["kind"] == "task"
        ]
        nets = [
            e for e in events
            if e["ev"] == "progress" and e["kind"] == "net"
        ]
        assert tasks and nets
        # Canonical fan-in: per-stage task indices are strictly
        # increasing — worker scheduling never reorders the stream.
        for stage in {t["stage"] for t in tasks}:
            indices = [t["index"] for t in tasks if t["stage"] == stage]
            assert indices == sorted(indices)


class TestProfileOffIsInvisible:
    def test_off_matches_committed_baseline_counters(self):
        flow = route(profile="off")
        assert flow.trace is not None
        baseline = json.loads(BASELINE.read_text())["stitch-aware"]
        fresh = flow.trace.to_dict()
        # Timestamps are machine-bound; the deterministic shape (span
        # tree, counters, gauges, meta) must match byte for byte.
        def deterministic(doc):
            def scrub(span):
                span = dict(span)
                span.pop("wall_seconds", None)
                span.pop("cpu_seconds", None)
                span.pop("started_at", None)
                span["children"] = [
                    scrub(c) for c in span.get("children", ())
                ]
                return span

            # The committed baselines still carry the retired
            # ``engine`` meta stamp and predate the ``detailed_search``
            # stamp; nothing else in meta may differ.
            meta = {
                k: v
                for k, v in doc.get("meta", {}).items()
                if k not in ("engine", "detailed_search")
            }
            return {
                "router": doc["router"],
                "design": doc["design"],
                "counters": doc["counters"],
                "meta": meta,
                "spans": [scrub(s) for s in doc["spans"]],
            }

        assert deterministic(fresh) == deterministic(baseline)

    def test_off_records_no_perf_counters(self):
        flow = route(profile="off")
        assert flow.trace is not None
        agg = flow.trace.aggregate_counters()
        assert not [k for k in agg if k.startswith("perf_")]
        assert "profile" not in flow.trace.meta


class TestCountersModeIsPure:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_stripping_recovers_off_mode(self, workers):
        off = route(workers=workers, profile="off")
        counters = route(workers=workers, profile="counters")
        assert off.trace is not None and counters.trace is not None
        assert strip_instrumentation(
            counters.trace.aggregate_counters()
        ) == off.trace.aggregate_counters()

    def test_counters_mode_actually_counts(self):
        flow = route(profile="counters")
        assert flow.trace is not None
        agg = flow.trace.aggregate_counters()
        assert agg.get("perf_heap_pushes", 0) > 0
        assert agg.get("perf_heap_pops", 0) > 0
        assert agg.get("perf_maze_heap_pops", 0) > 0
        assert flow.trace.meta["profile"] == "counters"

    def test_overlay_counters_in_parallel_runs(self):
        # Overlay commits only exist where overlays do: pooled batches.
        flow = route(workers=4, profile="counters")
        assert flow.trace is not None
        agg = flow.trace.aggregate_counters()
        assert agg.get("perf_overlay_commits", 0) > 0
        assert agg.get("perf_overlay_read_nodes", 0) > 0

    def test_engines_agree_on_perf_counters(self, monkeypatch):
        # The indexed search derives its heap-push count from the heap
        # invariant; the reference search counts pushes explicitly.
        # Identical expansions imply identical heap traffic.
        import repro.detailed.router as detailed_router
        from repro.detailed.search import reference_astar

        indexed = route(profile="counters")
        monkeypatch.setattr(detailed_router, "astar_connect", reference_astar)
        reference = route(profile="counters")
        assert indexed.trace is not None and reference.trace is not None
        indexed_agg = indexed.trace.aggregate_counters()
        reference_agg = reference.trace.aggregate_counters()
        for name in ("perf_heap_pushes", "perf_heap_pops", "astar_expansions"):
            assert indexed_agg[name] == reference_agg[name]
