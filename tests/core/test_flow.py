"""Integration tests: the full stitch-aware flow vs the baseline."""

import pytest

from repro.benchmarks_gen import SyntheticSpec, generate_design
from repro.config import RouterConfig
from repro.api import BaselineRouter, FlowResult, StitchAwareRouter
from repro.assign import ColoringMethod, TrackMethod

SPEC = SyntheticSpec(
    name="flow-t", nets=80, pins=220, layers=3, cells_per_pin=26.0,
    stitch_pin_fraction=0.08,
)


@pytest.fixture(scope="module")
def design():
    return generate_design(SPEC)


@pytest.fixture(scope="module")
def aware_result(design):
    return StitchAwareRouter().route(design)


@pytest.fixture(scope="module")
def baseline_result(design):
    return BaselineRouter().route(design)


class TestFlowResults:
    def test_all_stages_present(self, aware_result):
        assert isinstance(aware_result, FlowResult)
        assert aware_result.global_result.routes
        assert aware_result.layer_assignment.columns
        assert aware_result.track_assignment.columns
        assert aware_result.detailed_result.nets
        assert aware_result.cpu_seconds > 0

    def test_report_totals_consistent(self, aware_result):
        report = aware_result.report
        assert report.total_nets == aware_result.design.num_nets
        assert 0 <= report.routed_nets <= report.total_nets
        assert report.routability == pytest.approx(
            report.routed_nets / report.total_nets
        )

    def test_hard_constraints(self, aware_result, baseline_result):
        """Both routers produce zero vertical routing violations."""
        assert aware_result.report.vertical_violations == 0
        assert baseline_result.report.vertical_violations == 0

    def test_routability_band(self, aware_result, baseline_result):
        assert aware_result.report.routability >= 0.93
        assert baseline_result.report.routability >= 0.93

    def test_stitch_aware_reduces_short_polygons(
        self, aware_result, baseline_result
    ):
        """The headline Table III claim."""
        assert (
            aware_result.report.short_polygons
            < baseline_result.report.short_polygons
        )

    def test_via_violations_from_on_line_pins(self, design, aware_result):
        """#VV is bounded by the routed pins sitting on stitching lines."""
        assert design.stitches is not None
        on_line_pins = sum(
            1
            for p in design.netlist.pins
            if design.stitches.is_on_line(p.location.x)
        )
        assert aware_result.report.via_violations <= on_line_pins

    def test_router_configuration_switches(self, design):
        """Ablation switches produce a working flow."""
        router = StitchAwareRouter(
            config=RouterConfig(
                track_method=TrackMethod.BASELINE,
                coloring=ColoringMethod.MST,
                stitch_aware_global=False,
                stitch_aware_detail=True,
            )
        )
        result = router.route(design)
        assert result.report.routability > 0.9

    def test_deterministic(self, design, aware_result):
        again = StitchAwareRouter().route(design)
        assert again.report.short_polygons == aware_result.report.short_polygons
        assert again.report.routed_nets == aware_result.report.routed_nets
        assert again.report.wirelength == aware_result.report.wirelength

    def test_report_row_fields(self, aware_result):
        row = aware_result.report.row()
        assert set(row) == {
            "circuit", "rout_pct", "vv", "sp", "wl", "vias", "cpu_s"
        }


class TestBaselineSpecifics:
    def test_baseline_rips_stitch_line_tracks(self, baseline_result):
        """Conventional TA lands segments on line tracks; they fail."""
        failed = baseline_result.track_assignment.failed_nets
        # The baseline must at least attempt rips on designs with
        # stitch lines through panels (probabilistically certain here).
        assert isinstance(failed, set)

    def test_baseline_has_zero_bad_end_avoidance(self, baseline_result):
        """Baseline reports bad ends but never dodges them."""
        assert baseline_result.track_assignment.num_bad_ends >= 0


class TestAuditIntegration:
    @pytest.fixture(scope="class")
    def audited(self, design):
        return StitchAwareRouter(config=RouterConfig(audit=True)).route(
            design
        )

    def test_default_flow_has_no_audit(self, aware_result):
        assert aware_result.audit is None
        assert "audit" not in [s.name for s in aware_result.trace.spans]

    def test_audit_true_attaches_clean_report(self, audited):
        audit = audited.audit
        assert audit is not None
        assert audit.ok
        assert audit.findings == [] and audit.drift == []
        assert audit.nets_checked == audited.report.total_nets

    def test_audit_span_carries_counters(self, audited):
        names = [s.name for s in audited.trace.spans]
        span = audited.trace.spans[names.index("audit")]
        assert span.counters["audit_nets_checked"] == (
            audited.audit.nets_checked
        )
        assert span.counters["audit_findings"] == 0
        assert span.counters["audit_drift"] == 0

    def test_audit_flag_stamped_in_trace_meta(self, audited, aware_result):
        assert audited.trace.meta.get("audit") is True
        assert "audit" not in aware_result.trace.meta

    def test_audited_routing_identical_to_default(
        self, audited, aware_result
    ):
        """The auditor observes; it must never change the solution."""
        assert audited.report.wirelength == aware_result.report.wirelength
        assert audited.report.vias == aware_result.report.vias
        assert (
            audited.report.via_violations
            == aware_result.report.via_violations
        )
