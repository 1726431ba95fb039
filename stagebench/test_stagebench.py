"""Benchmark-side tests: seed plumbing, host probe, span accounting, audit check.

Run from the repository root: ``python3 -m pytest stagebench -q``.
"""

import dataclasses
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import pytest  # noqa: E402
from repro.analysis.audit import AuditFinding  # noqa: E402
from repro.api import audit_solution, route  # noqa: E402
from repro.benchmarks_gen import MCNC_SPECS, generate_design  # noqa: E402
from probe import REFERENCE_S, CallTimeout, CallTiming, timed_call  # noqa: E402
from tracing import SpanRecorder  # noqa: E402
from workloads import WORKLOADS, designs_digest, stress_copy_matches  # noqa: E402


def test_stress_copy_reproduces_mcnc_stress_design_at_its_default_seed():
    assert stress_copy_matches(scale=1.0)


def test_seed_alone_determines_the_batch():
    workload = WORKLOADS["faraday-serial"]
    assert designs_digest(workload.make_designs(3)) == designs_digest(workload.make_designs(3))
    assert designs_digest(workload.make_designs(3)) != designs_digest(workload.make_designs(4))


def test_warmup_design_is_seeded_and_outside_the_batch():
    workload = WORKLOADS["global-congested"]
    warmup = designs_digest([workload.make_warmup(3)])
    assert warmup == designs_digest([workload.make_warmup(3)])
    assert warmup not in {designs_digest([d]) for d in workload.make_designs(3)}


def test_scaled_time_drops_probe_time_and_scales_to_the_reference_host():
    timing = CallTiming(samples=[2 * REFERENCE_S, 2 * REFERENCE_S])
    assert timing.scaled(1.0 + 4 * REFERENCE_S) == pytest.approx(0.5)
    assert CallTiming().scaled(1.0) == 1.0


@pytest.mark.parametrize("probe", [True, False])
def test_timed_call_enforces_its_limit(probe):
    with pytest.raises(CallTimeout):
        with timed_call(0.2, probe):
            time.sleep(1.0)


def test_timed_call_probes_while_the_body_runs():
    with timed_call(5.0, probe=True) as timing:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(timing.samples) >= 3


def test_self_time_subtracts_covered_child_time():
    recorder = SpanRecorder()
    with recorder.span("outer"):
        time.sleep(0.02)
        with recorder.span("inner"):
            time.sleep(0.05)
    self_s = recorder.self_seconds()
    outer = recorder.spans[0][2] - recorder.spans[0][1]
    assert recorder.spans[1][3] == 0  # inner's parent is outer
    assert abs(self_s["outer"] + self_s["inner"] - outer) < 1e-9
    assert self_s["inner"] >= 0.05 > self_s["outer"]


def _small_flow():
    return route(generate_design(MCNC_SPECS["S13207"], scale=0.05, seed=2))


def _with_extra_finding(monkeypatch, finding):
    def audit_plus(*args):
        report = audit_solution(*args)
        return dataclasses.replace(report, findings=[*report.findings, finding])

    monkeypatch.setattr(checks, "audit_solution", audit_plus)


def test_audit_check_sets_apart_exactly_the_prescribed_dogleg_jogs(monkeypatch):
    flow = _small_flow()
    problems, jogs = checks.audit_flow(flow)
    assert problems == [] and jogs >= 1

    message, net, x, y, layer = min(checks.dogleg_jogs(flow))
    stray = AuditFinding(rule="AUD006", message=message, net=net, x=x + 1000, y=y, layer=layer)
    _with_extra_finding(monkeypatch, stray)
    problems, _ = checks.audit_flow(flow)
    assert len(problems) == 1 and "AUD006" in problems[0]
