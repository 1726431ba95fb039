"""The static cross-backend parity analyzer (PAR rules).

Each rule gets a minimal drift-injection corpus (one backend of a
declared pair diverges) plus a clean variant proving the rule does not
cross-fire on symmetric code.  Non-PAR005 corpora use names that ARE
in the observe schema registry (``maze_expansions``,
``edge_overflow``) so only the rule under test fires.  The final gate
asserts the repository's own ``src`` tree is parity-clean under the
committed (empty) baseline.
"""

import json

import pytest

from repro.analysis import (
    PAR_RULES,
    analyze_parity_paths,
    analyze_parity_source,
    paired,
    render_parity,
    resolve_parity_rule_filter,
)
from repro.cli import main


def codes(source, path="corpus.py"):
    return [f.rule for f in analyze_parity_source(source, path)]


# ----------------------------------------------------------------------
# The @paired marker itself
# ----------------------------------------------------------------------
class TestPairedMarker:
    def test_marker_is_inert(self):
        @paired("demo", backend="object")
        def probe(x):
            return x + 1

        assert probe(1) == 2
        assert probe.__repro_pair__ == "demo"
        assert probe.__repro_pair_backend__ == "object"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            paired("demo", backend="gpu")

    def test_empty_pair_name_raises(self):
        with pytest.raises(ValueError, match="non-empty"):
            paired("", backend="object")


# ----------------------------------------------------------------------
# PAR001: counter bumped in one backend only
# ----------------------------------------------------------------------
COUNTER_DRIFT = """\
@paired("demo", backend="object")
def ref(tracer):
    tracer.count("maze_expansions")

@paired("demo", backend="array")
def fast(tracer):
    pass
"""

COUNTER_SYMMETRIC = """\
@paired("demo", backend="object")
def ref(tracer):
    tracer.count("maze_expansions")

@paired("demo", backend="array")
def fast(tracer):
    tracer.count("maze_expansions")
"""

STORE_DRIFT = """\
@paired("demo", backend="object")
def ref(stats):
    stats["maze_expansions"] = stats.get("maze_expansions", 0) + 1

@paired("demo", backend="array")
def fast(stats):
    pass
"""


class TestCounterParity:
    def test_count_drift_fires_par001(self):
        assert codes(COUNTER_DRIFT) == ["PAR001"]

    def test_symmetric_counts_are_clean(self):
        assert codes(COUNTER_SYMMETRIC) == []

    def test_stats_store_drift_fires_par001(self):
        assert codes(STORE_DRIFT) == ["PAR001"]

    def test_finding_names_both_backends(self):
        finding = analyze_parity_source(COUNTER_DRIFT, "corpus.py")[0]
        assert "object" in finding.message
        assert "array" in finding.message
        assert "maze_expansions" in finding.message


# ----------------------------------------------------------------------
# PAR002: span/gauge/progress emitted in one backend only
# ----------------------------------------------------------------------
GAUGE_DRIFT = """\
@paired("demo", backend="object")
def ref(span):
    span.gauge("edge_overflow", 3)

@paired("demo", backend="array")
def fast(span):
    pass
"""

SPAN_DRIFT = """\
@paired("demo", backend="object")
def ref(tracer):
    with tracer.span("levelize"):
        pass

@paired("demo", backend="array")
def fast(tracer):
    pass
"""

PROGRESS_SYMMETRIC = """\
@paired("demo", backend="object")
def ref(tracer):
    tracer.progress("net", done=1, total=2)

@paired("demo", backend="array")
def fast(tracer):
    tracer.progress("net", done=1, total=2)
"""


class TestEventParity:
    def test_gauge_drift_fires_par002(self):
        assert codes(GAUGE_DRIFT) == ["PAR002"]

    def test_span_drift_fires_par002(self):
        assert codes(SPAN_DRIFT) == ["PAR002"]

    def test_symmetric_progress_is_clean(self):
        assert codes(PROGRESS_SYMMETRIC) == []


# ----------------------------------------------------------------------
# PAR003: RouterConfig field consumed by one backend only
# ----------------------------------------------------------------------
CONFIG_DRIFT = """\
@paired("demo", backend="object")
def ref(config, x):
    return x * config.alpha

@paired("demo", backend="array")
def fast(config, x):
    return x
"""

CONFIG_SYMMETRIC = """\
@paired("demo", backend="object")
def ref(config, x):
    return x * config.alpha

@paired("demo", backend="array")
def fast(config, x):
    return x * config.alpha
"""


class TestConfigParity:
    def test_config_read_drift_fires_par003(self):
        assert codes(CONFIG_DRIFT) == ["PAR003"]

    def test_symmetric_reads_are_clean(self):
        assert codes(CONFIG_SYMMETRIC) == []

    def test_non_config_receiver_is_ignored(self):
        source = CONFIG_DRIFT.replace("config", "options")
        assert codes(source) == []


# ----------------------------------------------------------------------
# PAR004: divergent exception / shared-state op surface
# ----------------------------------------------------------------------
RAISE_DRIFT = """\
@paired("demo", backend="object")
def ref(x):
    if x < 0:
        raise ValueError("negative")
    return x

@paired("demo", backend="array")
def fast(x):
    return x
"""

OP_DRIFT = """\
@paired("demo", backend="object")
def ref(overlay, net, node):
    overlay.occupy(node, net)

@paired("demo", backend="array")
def fast(overlay, net, node):
    pass
"""

OP_SYMMETRIC = """\
@paired("demo", backend="object")
def ref(overlay, net, node):
    overlay.occupy(node, net)

@paired("demo", backend="array")
def fast(overlay, net, node):
    overlay.occupy(node, net)
"""


class TestSurfaceParity:
    def test_raise_drift_fires_par004(self):
        assert codes(RAISE_DRIFT) == ["PAR004"]

    def test_op_drift_fires_par004(self):
        assert codes(OP_DRIFT) == ["PAR004"]

    def test_symmetric_ops_are_clean(self):
        assert codes(OP_SYMMETRIC) == []


# ----------------------------------------------------------------------
# PAR005: emitted name missing from the schema registry
# ----------------------------------------------------------------------
UNREGISTERED_COUNTER = """\
def lonely(tracer):
    tracer.count("totally_unregistered_counter")
"""

REGISTERED_COUNTER = """\
def lonely(tracer):
    tracer.count("maze_expansions")
"""

STORE_OF_GAUGE_NAME = """\
def accumulate(stats, w):
    stats["conflict_weight"] = stats.get("conflict_weight", 0.0) + w
"""

UNREGISTERED_SPAN_KWARG = """\
def staged(tracer):
    with tracer.span("levelize", bogus_kwarg_gauge=3):
        pass
"""


class TestRegistryParity:
    def test_unregistered_counter_fires_par005(self):
        assert codes(UNREGISTERED_COUNTER) == ["PAR005"]

    def test_registered_counter_is_clean(self):
        assert codes(REGISTERED_COUNTER) == []

    def test_par005_needs_no_pair(self):
        findings = analyze_parity_source(UNREGISTERED_COUNTER, "c.py")
        assert findings[0].rule == "PAR005"

    def test_store_of_registered_gauge_name_is_clean(self):
        # Scratch-dict stores do not reveal the eventual kind: assign
        # accumulates conflict_weight this way before emitting it as a
        # gauge, so either registered kind satisfies PAR005.
        assert codes(STORE_OF_GAUGE_NAME) == []

    def test_unregistered_span_kwarg_fires_par005(self):
        assert codes(UNREGISTERED_SPAN_KWARG) == ["PAR005"]


# ----------------------------------------------------------------------
# PAR006: drifting signatures, defaults, duplicate tags
# ----------------------------------------------------------------------
DEFAULT_DRIFT = """\
@paired("demo", backend="object")
def ref(x, limit=100):
    return x

@paired("demo", backend="array")
def fast(x, limit=200):
    return x
"""

EXTRA_PARAM = """\
@paired("demo", backend="object")
def ref(x):
    return x

@paired("demo", backend="array")
def fast(x, scratch):
    return x
"""

RECEIVER_EXEMPT = """\
@paired("demo", backend="object")
def ref(grid, x):
    return x

class Fast:
    @paired("demo", backend="array")
    def method(self, grid, x):
        return x
"""

DUPLICATE_TAG = """\
@paired("demo", backend="object")
def ref(x):
    return x

@paired("demo", backend="object")
def ref2(x):
    return x
"""


class TestSignatureParity:
    def test_default_drift_fires_par006(self):
        assert codes(DEFAULT_DRIFT) == ["PAR006"]

    def test_extra_param_fires_par006(self):
        assert codes(EXTRA_PARAM) == ["PAR006"]

    def test_receiver_param_is_exempt(self):
        assert codes(RECEIVER_EXEMPT) == []

    def test_duplicate_backend_tag_fires_par006(self):
        assert "PAR006" in codes(DUPLICATE_TAG)

    def test_finding_lands_on_non_reference_member(self):
        finding = analyze_parity_source(DEFAULT_DRIFT, "corpus.py")[0]
        assert finding.line == 6  # fast's def line, not ref's


# ----------------------------------------------------------------------
# Transitive signatures
# ----------------------------------------------------------------------
TRANSITIVE_DRIFT = """\
def _helper(tracer):
    tracer.count("maze_expansions")

@paired("demo", backend="object")
def ref(tracer):
    _helper(tracer)

@paired("demo", backend="array")
def fast(tracer):
    pass
"""

SHARED_PREAMBLE = """\
def _preamble(tracer):
    tracer.count("maze_expansions")

@paired("demo", backend="object")
def ref(tracer):
    _preamble(tracer)

@paired("demo", backend="array")
def fast(tracer):
    _preamble(tracer)
"""

PAIRED_CALLEE_BOUNDARY = """\
@paired("inner", backend="object")
def inner_ref(tracer):
    tracer.count("maze_expansions")

@paired("inner", backend="array")
def inner_fast(tracer):
    tracer.count("maze_expansions")

@paired("outer", backend="object")
def outer_ref(tracer):
    inner_ref(tracer)

@paired("outer", backend="array")
def outer_fast(tracer):
    pass
"""


class TestTransitiveSignatures:
    def test_helper_emission_folds_into_caller(self):
        assert codes(TRANSITIVE_DRIFT) == ["PAR001"]

    def test_finding_lands_at_the_emit_site(self):
        finding = analyze_parity_source(TRANSITIVE_DRIFT, "corpus.py")[0]
        assert finding.line == 2  # inside _helper, where to suppress

    def test_shared_preamble_is_clean(self):
        assert codes(SHARED_PREAMBLE) == []

    def test_paired_callee_is_a_contract_boundary(self):
        # outer_ref calls the (internally symmetric) inner pair; the
        # inner pair's own effects must not leak into the outer diff.
        assert codes(PAIRED_CALLEE_BOUNDARY) == []


# ----------------------------------------------------------------------
# Suppressions and rule filters
# ----------------------------------------------------------------------
SUPPRESSED_DRIFT = """\
@paired("demo", backend="object")
def ref(tracer):
    tracer.count("maze_expansions")  # repro: allow-PAR001 object-only

@paired("demo", backend="array")
def fast(tracer):
    pass
"""

DEAD_SUPPRESSION = """\
def quiet(x):
    return x + 1  # repro: allow-PAR001 nothing here
"""


class TestSuppression:
    def test_allow_comment_suppresses(self):
        assert codes(SUPPRESSED_DRIFT) == []

    def test_dead_suppression_is_reported(self, tmp_path):
        path = tmp_path / "corpus.py"
        path.write_text(DEAD_SUPPRESSION, encoding="utf-8")
        report = analyze_parity_paths([str(path)])
        assert report.ok
        assert len(report.dead_suppressions) == 1
        assert report.dead_suppressions[0].codes == ("PAR001",)

    def test_rule_filter_default_is_every_rule(self):
        assert resolve_parity_rule_filter() == frozenset(PAR_RULES)

    def test_rule_filter_unknown_code_raises(self):
        with pytest.raises(ValueError, match="unknown rule code"):
            resolve_parity_rule_filter(select=["PAR999"])


# ----------------------------------------------------------------------
# CLI and baseline
# ----------------------------------------------------------------------
class TestParityCli:
    @pytest.fixture()
    def dirty_path(self, tmp_path):
        path = tmp_path / "corpus.py"
        path.write_text(COUNTER_DRIFT, encoding="utf-8")
        return path

    def test_findings_exit_one(self, dirty_path, monkeypatch, capsys):
        monkeypatch.chdir(dirty_path.parent)
        assert main(["parity", str(dirty_path)]) == 1
        out = capsys.readouterr().out
        assert "PAR001" in out and "hint:" in out

    def test_json_format(self, dirty_path, monkeypatch, capsys):
        monkeypatch.chdir(dirty_path.parent)
        assert main(["parity", "--format", "json", str(dirty_path)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False
        assert document["pairs"] == 1
        assert document["findings"][0]["rule"] == "PAR001"

    def test_ignore_passes(self, dirty_path, monkeypatch):
        monkeypatch.chdir(dirty_path.parent)
        assert (
            main(["parity", "--ignore", "PAR001", str(dirty_path)]) == 0
        )

    def test_unknown_code_is_usage_error(
        self, dirty_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(dirty_path.parent)
        assert main(["parity", "--select", "PAR999", str(dirty_path)]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_update_baseline_grandfathers(
        self, dirty_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(dirty_path.parent)
        assert main(["parity", "--update-baseline", str(dirty_path)]) == 0
        out = capsys.readouterr().out
        assert "parity-baseline.json" in out
        assert "1 added, 0 pruned" in out
        assert main(["parity", str(dirty_path)]) == 0

    def test_update_baseline_prunes_fixed_findings(
        self, dirty_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(dirty_path.parent)
        assert main(["parity", "--update-baseline", str(dirty_path)]) == 0
        capsys.readouterr()
        dirty_path.write_text(COUNTER_SYMMETRIC, encoding="utf-8")
        assert main(["parity", "--update-baseline", str(dirty_path)]) == 0
        assert "0 added, 1 pruned" in capsys.readouterr().out


class TestCheckCli:
    def test_clean_tree_passes(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "clean.py"
        path.write_text(COUNTER_SYMMETRIC, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "check: PASS" in out
        assert "== lint ==" in out and "== parity ==" in out

    def test_any_gate_failing_fails_the_run(
        self, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "corpus.py"
        path.write_text(COUNTER_DRIFT, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["check", str(path)]) == 1
        assert "check: FAIL" in capsys.readouterr().out

    def test_json_merges_all_gates(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "corpus.py"
        path.write_text(COUNTER_DRIFT, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["check", "--format", "json", str(path)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False
        assert document["lint"]["ok"] is True
        assert document["races"]["ok"] is True
        assert document["parity"]["ok"] is False


# ----------------------------------------------------------------------
# The repository's own engine is clean
# ----------------------------------------------------------------------
class TestSrcIsClean:
    def test_src_passes_under_committed_baseline(self):
        # Committed baseline is empty: every cross-backend divergence
        # in the engine must be symmetric, suppressed at its emit site
        # with a reason, or fixed — never silently grandfathered.
        report = analyze_parity_paths(["src"])
        assert report.ok, render_parity(report)
        # batch-executor.  The detailed-astar pair was retired when
        # the fast search moved into the compiled kernel; the
        # hypothesis differential and the sanitizer's shadow oracle
        # hold the kernel to the reference instead.
        assert report.pairs >= 1
        assert not report.dead_suppressions
