"""The benchmark regression gate runs green against committed baselines.

This is the same check the ``regression-gate`` CI job performs; having
it in the tier-1 suite means a PR that changes routing behavior cannot
land without refreshing ``benchmarks/baselines/`` (the gate fails) and
a PR that refreshes baselines cannot drift from the code (this test
fails).
"""

import importlib.util
import json
import pathlib
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
GATE = REPO / "benchmarks" / "regression.py"


@pytest.fixture(scope="module")
def regression():
    spec = importlib.util.spec_from_file_location("regression", GATE)
    module = importlib.util.module_from_spec(spec)
    sys.modules["regression"] = module
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("regression", None)


def test_gate_passes_against_committed_baselines(regression, capsys, tmp_path):
    # The full gate: every committed circuit, both routers.
    code = regression.main(["--no-wall", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "regression gate passed" in out
    for circuit in ("S9234", "S5378", "S13207"):
        for label in ("baseline", "stitch-aware"):
            assert f"{circuit}/{label}: OK" in out
        # The CI artifact copy is a loadable BENCH document.
        produced = tmp_path / f"BENCH_{circuit}.json"
        assert produced.exists()
        traces = regression.load_traces(produced)
        assert set(traces) == {"baseline", "stitch-aware"}


def test_gate_fails_on_injected_counter_regression(
    regression, capsys, tmp_path, monkeypatch
):
    # Copy the committed baseline, bump one deterministic counter, and
    # point the gate at the tampered copy.
    src = regression.baseline_path("S9234")
    doc = json.loads(src.read_text())
    spans = doc["stitch-aware"]["spans"]

    def bump_first_counter(span_list):
        for span in span_list:
            for name in span.get("counters", {}):
                span["counters"][name] += 1
                return True
            if bump_first_counter(span.get("children", [])):
                return True
        return False

    assert bump_first_counter(spans)
    baseline_dir = tmp_path / "baselines"
    baseline_dir.mkdir()
    (baseline_dir / "BENCH_S9234.json").write_text(json.dumps(doc))
    monkeypatch.setattr(regression, "BASELINE_DIR", baseline_dir)

    code = regression.main(["--only", "S9234", "--no-wall"])
    out = capsys.readouterr().out
    assert code == 1
    assert "regression gate FAILED" in out
    assert "counter" in out


def test_gate_reports_missing_baseline(regression, capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(regression, "BASELINE_DIR", tmp_path / "nowhere")
    code = regression.main(["--only", "S9234", "--no-wall"])
    out = capsys.readouterr().out
    assert code == 1
    assert "missing baseline" in out


def test_gate_rejects_unknown_circuit(regression):
    with pytest.raises(SystemExit):
        regression.main(["--only", "NotACircuit"])


def test_gate_audits_fresh_solutions(regression, capsys, tmp_path):
    code = regression.main(["--no-wall"])
    out = capsys.readouterr().out
    assert code == 0, out
    for circuit in regression.CIRCUITS:
        assert f"{circuit}/baseline: audit clean" in out
        assert f"{circuit}/stitch-aware: audit clean" in out


def test_no_audit_skips_the_auditor(regression, capsys, monkeypatch):
    def boom(circuit, flows):
        raise AssertionError("audit ran despite --no-audit")

    monkeypatch.setattr(regression, "audit_flows", boom)
    code = regression.main(["--only", "S9234", "--no-wall", "--no-audit"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "audit" not in out


def test_audit_failure_fails_the_gate(regression, capsys, monkeypatch):
    def failing_audit(circuit, flows):
        return [f"{circuit}/stitch-aware: audit AUD004 net split"]

    monkeypatch.setattr(regression, "audit_flows", failing_audit)
    code = regression.main(["--only", "S9234", "--no-wall"])
    out = capsys.readouterr().out
    assert code == 1
    assert "regression gate FAILED" in out
    assert "AUD004" in out


def test_snapshot_dir_writes_bench_documents(regression, capsys, tmp_path):
    code = regression.main(
        [
            "--only",
            "S9234",
            "--no-wall",
            "--snapshot-dir",
            str(tmp_path / "snaps"),
        ]
    )
    assert code == 0, capsys.readouterr().out
    snapshot = tmp_path / "snaps" / "BENCH_S9234.json"
    assert snapshot.exists()
    # Same label -> trace schema as the committed baselines, and the
    # counters match what the gate itself just verified.
    fresh = regression.load_traces(snapshot)
    committed = regression.load_traces(regression.baseline_path("S9234"))
    assert set(fresh) == set(committed) == {"baseline", "stitch-aware"}
    for label in fresh:
        assert fresh[label].counters == committed[label].counters


def test_committed_snapshots_match_baseline_counters(regression):
    """The top-level BENCH_*.json trajectory mirrors the gate baselines."""
    for circuit in regression.CIRCUITS:
        snapshot = REPO / f"BENCH_{circuit}.json"
        assert snapshot.exists(), f"missing committed snapshot {snapshot}"
        fresh = regression.load_traces(snapshot)
        committed = regression.load_traces(regression.baseline_path(circuit))
        assert set(fresh) == set(committed)
        for label in fresh:
            assert fresh[label].counters == committed[label].counters
