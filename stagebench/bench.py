"""Measurement and checks behind ``run.py`` (see its docstring and README.md)."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import multiprocessing
import resource
import statistics
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Optional

from checks import audit_flow
from probe import CallTimeout, timed_call
from repro.observe import Tracer
from tracing import DETAILED, EVAL, GLOBAL, LAYERS, TRACKS, SpanRecorder, instrumented
from tracing import ROOT as ROOT_SPAN
from workloads import (
    QUALITY_COLUMNS,
    WORKLOADS,
    Outcome,
    designs_digest,
    stress_copy_matches,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh-interpreter set-up samples per run (median reported).
SETUP_SAMPLES = 5
#: Wall-clock limits: one routing call, and the routing of a whole run.
CALL_LIMIT_S = 60.0
RUN_LIMIT_S = 140.0
#: Per-call self times of the traced layers (they sum to the traced call).
LAYER_TIMES = (
    "globalroute.time_s",
    "assign.layers_s",
    "assign.tracks_s",
    "detailed.time_s",
    "eval.time_s",
    "core.self_s",
)


@dataclasses.dataclass
class Batch:
    """One pass over the workload's designs."""

    walls: list[float] = dataclasses.field(default_factory=list)
    #: Wall times scaled to the probe's reference host (= walls unprobed).
    scaled: list[float] = dataclasses.field(default_factory=list)
    probe_samples: list[float] = dataclasses.field(default_factory=list)
    outcomes: list[Any] = dataclasses.field(default_factory=list)
    traces: list[Any] = dataclasses.field(default_factory=list)
    problems: list[str] = dataclasses.field(default_factory=list)
    failed_calls: int = 0
    dogleg_jogs: int = 0


def run_batch(workload: Any, designs: list[Any], started: float,
              recorder: Optional[Any] = None, probe: bool = False) -> Batch:
    """Route every design once; check each result outside the timed call.

    ``probe`` samples host speed inside each call (``probe.py``).
    """
    profile = "off" if recorder is None else "counters"
    batch = Batch()
    for index, design in enumerate(designs):
        tracer = Tracer() if recorder is not None else None
        try:
            if time.perf_counter() - started > RUN_LIMIT_S:
                raise CallTimeout("run time limit reached before this call")
            with timed_call(CALL_LIMIT_S, probe) as timing, instrumented(recorder):
                span = contextlib.nullcontext()
                if recorder is not None:
                    recorder.request = index
                    span = recorder.span(ROOT_SPAN)
                t0 = time.perf_counter()
                with span:
                    result = workload.route(design, profile=profile, tracer=tracer)
                wall = time.perf_counter() - t0
        except Exception as exc:  # a crashed or timed-out call: all its nets fail
            batch.failed_calls += 1
            batch.problems.append(f"design {index}: {type(exc).__name__}: {exc}")
            batch.walls.append(CALL_LIMIT_S)
            batch.scaled.append(CALL_LIMIT_S)
            nets = len(design.netlist)
            batch.outcomes.append(
                Outcome(nets, 0, 0, tuple((c, 0) for c in QUALITY_COLUMNS))
            )
            continue
        batch.walls.append(wall)
        batch.scaled.append(timing.scaled(wall))
        batch.probe_samples += timing.samples
        outcome = workload.outcome(design, result)
        batch.outcomes.append(outcome)
        if workload.full_flow:
            problems, jogs = audit_flow(result)
            batch.dogleg_jogs += jogs
            batch.problems.extend(f"design {index}: {p}" for p in problems)
            if recorder is not None:
                batch.traces.append(result.trace)
        else:
            if outcome.routed != outcome.nets:
                batch.problems.append(
                    f"design {index}: {outcome.nets - outcome.routed} nets unrouted"
                )
            if recorder is not None:
                batch.traces.append(tracer.finish())
    return batch


def measure_setup(workload: str, seed: int) -> tuple[float, list[str]]:
    """Median fresh-interpreter import + generation time, and digests seen."""
    seconds, digests = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=60, cwd=ROOT, check=True,
        )
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        seconds.append(sample["seconds"])
        digests.append(sample["digest"])
    return statistics.median(seconds), digests


def stop_children() -> None:
    """Stop and reap every process the run started.

    Pool workers are joined by the routers; any still alive after a
    failed call are terminated here.  Shared memory starts the
    multiprocessing resource tracker, which outlives the pool and would
    otherwise be left to exit after the benchmark.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    """Own peak RSS plus the largest reaped child's (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def totals(batch: Batch) -> dict[str, int]:
    out: dict[str, int] = {}
    for o in batch.outcomes:
        for key, value in o.columns:
            out[key] = out.get(key, 0) + value
    return out


def determinism_problems(first: Batch, second: Batch, indices: range) -> list[str]:
    return [
        f"design {i}: repetition gave different quality"
        for i in indices
        if first.outcomes[i] != second.outcomes[i]
    ]


def end_to_end(workload: Any, designs: list[Any], seed: int, seconds: float,
               started: float) -> tuple[dict[str, tuple[float, str]], list[Batch], list[str]]:
    """Time whole passes over the batch for about ``seconds``; untraced.

    Each call probes host speed (``probe.py``) and ``route_s`` is the
    scaled call time.
    """
    reps = [run_batch(workload, designs, started, probe=True)]
    measured = sum(reps[0].walls)
    while measured + sum(reps[-1].walls) <= seconds and not reps[-1].failed_calls:
        reps.append(run_batch(workload, designs, started, probe=True))
        measured += sum(reps[-1].walls)
    samples = [x for r in reps for x in r.probe_samples]
    probe_ms = statistics.median(samples) * 1e3 if samples else float("nan")
    print(f"  raw wall per call {measured / sum(len(r.walls) for r in reps):.4f} s; "
          f"{len(samples)} probes, median {probe_ms:.3f} ms")
    rss = peak_rss_mb()
    first = reps[0]
    problems = list(first.problems)
    for rep in reps[1:]:
        problems += determinism_problems(first, rep, range(len(designs)))
    setup_s, digests = measure_setup(workload.name, seed)
    if any(d != designs_digest(designs) for d in digests):
        problems.append("a fresh interpreter generated a different batch for this seed")
    nets = sum(o.nets for o in first.outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        # Per design the median over passes, then the mean over the batch.
        "route_s": (
            statistics.mean(
                statistics.median(r.scaled[i] for r in reps) for i in range(len(designs))
            ),
            "s",
        ),
        "peak_rss_mb": (rss, "MB"),
        "routability": (sum(o.routed for o in first.outcomes) / nets, "ratio"),
        "wirelength": (sum(o.wirelength for o in first.outcomes), "pitch"),
    }
    return metrics, reps, problems


def per_layer(workload: Any, designs: list[Any], started: float,
              spans_path: Path) -> tuple[dict[str, tuple[float, str]], list[Batch], list[str]]:
    """One untraced and one traced pass; per-layer metrics of the traced one."""
    untraced = run_batch(workload, designs, started)
    recorder = SpanRecorder()
    traced = run_batch(workload, designs, started, recorder)
    recorder.save(spans_path)
    problems = untraced.problems + traced.problems
    if not (untraced.failed_calls or traced.failed_calls):
        problems += determinism_problems(untraced, traced, range(len(designs)))
    calls = len(designs)
    self_s = recorder.self_seconds()
    counters: dict[str, float] = {}
    rounds = 0
    utilization: list[float] = []
    width_sum = 0.0  # batch widths weighted by batches planned
    for trace in traced.traces:
        for name, value in trace.aggregate_counters().items():
            counters[name] = counters.get(name, 0) + value
        for span in trace.walk():
            rounds += span.name == "negotiation-round"
            if "worker_utilization" in span.gauges:
                utilization.append(span.gauges["worker_utilization"])
            if "parallel_mean_batch_width" in span.gauges:
                width_sum += span.gauges["parallel_mean_batch_width"] * span.counters.get(
                    "parallel_batches", 0
                )
    c = counters.get
    global_s, detailed_s = self_s.get(GLOBAL, 0.0), self_s.get(DETAILED, 0.0)
    root_s = sum(e - s for n, s, e, _p, _r in recorder.spans if n == ROOT_SPAN)

    def rate(count: float, secs: float) -> float:
        return count / secs if secs else 0.0

    metrics: dict[str, tuple[float, str]] = {
        "globalroute.time_s": (global_s / calls, "s"),
        "globalroute.expansions_per_s": (rate(c("maze_expansions", 0), global_s), "1/s"),
        "globalroute.maze_expansions": (c("maze_expansions", 0), "count"),
        "globalroute.negotiation_rounds": (rounds, "count"),
        "globalroute.ripup_victims": (c("ripup_victims", 0), "count"),
        "engine.maze_heap_pops": (c("perf_maze_heap_pops", 0), "count"),
        "engine.cache_refreshes": (c("perf_cache_refreshes", 0), "count"),
        "engine.cache_updates": (c("perf_cache_updates", 0), "count"),
        "engine.heap_pops": (c("perf_heap_pops", 0), "count"),
        "detailed.time_s": (detailed_s / calls, "s"),
        "detailed.expansions_per_s": (rate(c("astar_expansions", 0), detailed_s), "1/s"),
        "detailed.astar_searches": (c("astar_searches", 0), "count"),
        "detailed.astar_expansions": (c("astar_expansions", 0), "count"),
        "detailed.stitch_cost_evaluations": (c("stitch_cost_evaluations", 0), "count"),
        "detailed.ripup_rounds": (c("ripup_rounds", 0), "count"),
        "detailed.reroutes": (c("reroutes", 0), "count"),
        "detailed.first_pass_yield": (
            1 - rate(c("first_pass_failed", 0), c("nets_attempted", 0))
            if c("nets_attempted") else 0.0,
            "ratio",
        ),
        "assign.layers_s": (self_s.get(LAYERS, 0.0) / calls, "s"),
        "assign.tracks_s": (self_s.get(TRACKS, 0.0) / calls, "s"),
        "assign.conflict_edges": (c("conflict_edges", 0), "count"),
        "assign.flow_augmentations": (c("flow_augmentations", 0), "count"),
        "assign.failed_segments": (c("failed_segments", 0), "count"),
        "assign.bad_ends": (c("bad_ends", 0), "count"),
        "parallel.tasks": (c("parallel_tasks", 0), "count"),
        "parallel.batches": (c("parallel_batches", 0), "count"),
        "parallel.mean_batch_width": (rate(width_sum, c("parallel_batches", 0)), "count"),
        "parallel.conflicts": (c("parallel_conflicts", 0), "count"),
        "parallel.ipc_bytes": (c("parallel_ipc_publish_bytes", 0), "B"),
        "parallel.worker_utilization": (
            statistics.mean(utilization) if utilization else 0.0, "ratio"
        ),
        "eval.time_s": (self_s.get(EVAL, 0.0) / calls, "s"),
        "core.self_s": (self_s.get(ROOT_SPAN, 0.0) / calls, "s"),
        "trace_overhead": (root_s / sum(untraced.walls) - 1, "ratio"),
        "route.wall_s": (statistics.mean(untraced.walls), "s"),
        "nets.attempted": (sum(o.nets for o in traced.outcomes), "count"),
        "nets.failed": (sum(o.nets - o.routed for o in traced.outcomes), "count"),
        "audit.dogleg_jogs": (traced.dogleg_jogs, "count"),
    }
    for name, value in totals(traced).items():
        metrics[f"quality.{name}"] = (value, "pitch" if name.endswith("wirelength") else "count")
    return metrics, [untraced, traced], problems


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Stage-resolved routing benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    designs = workload.make_designs(args.seed)

    # An untimed warm-up call before the timed passes, repeated after
    # them: the repetition must reproduce its quality.
    warmup = [workload.make_warmup(args.seed)]
    warm = run_batch(workload, warmup, started)
    if args.trace:
        spans_path = HERE / "results" / f"spans-{workload.name}-seed{args.seed}.json"
        metrics, batches, problems = per_layer(workload, designs, started, spans_path)
    else:
        metrics, batches, problems = end_to_end(
            workload, designs, args.seed, args.seconds, started
        )
    again = run_batch(workload, warmup, started)
    warm_problems = warm.problems + again.problems
    if not (warm.failed_calls or again.failed_calls):
        warm_problems += determinism_problems(warm, again, range(1))
    problems = [f"warm-up {p}" for p in warm_problems] + problems
    batches[:0] = [warm, again]
    if not workload.full_flow and not stress_copy_matches():
        problems.append("STRESS_S13207 no longer reproduces mcnc_stress_design")
    correct = not problems

    print(f"workload {workload.name}: {len(designs)} designs, seed {args.seed}, "
          f"{len(batches) - 2} pass(es) between two warm-up calls, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    if args.trace:
        # Self times of all spans add up to the traced call time.
        layers = [n for n in LAYER_TIMES if metrics[n][0]]
        traced_s = sum(metrics[n][0] for n in LAYER_TIMES)
        for name in layers:
            print(f"  share of the traced call: {name:22s} {metrics[name][0] / traced_s:7.1%}")
    for problem in problems[:20]:
        print(f"  FAIL {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(b.walls) for b in batches),
        "failed": sum(b.failed_calls for b in batches),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1
