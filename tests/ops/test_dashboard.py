"""Threshold bands and the graded dashboard.

Contract under test: band edges grade exactly (at-threshold is the
better colour), missing data grades ``no-data`` rather than green,
panel/overall status is the worst cell, and the stock per-pipeline
specs validate and cover their channels.
"""

import pytest

from repro.core.errors import OpsError
from repro.ops import default_quality_specs
from repro.ops.dashboard import (
    MetricSpec,
    QualitySpec,
    build_dashboard,
    dashboard_snapshot,
    status_rank,
    worst_status,
)

from tests.ops.conftest import fold_events, pipeline_bus


def spec_hib(green=0.95, yellow=0.90):
    return MetricSpec(
        metric="completeness", label="completeness", unit="%",
        higher_is_better=True, green=green, yellow=yellow,
    )


def spec_lib(green=0.05, yellow=0.15):
    return MetricSpec(
        metric="degraded_rate", label="degraded", unit="%",
        higher_is_better=False, green=green, yellow=yellow,
    )


def test_higher_is_better_bands_grade_at_the_edge():
    spec = spec_hib()
    assert spec.grade(1.0) == "green"
    assert spec.grade(0.95) == "green"  # at-threshold keeps the better band
    assert spec.grade(0.94) == "yellow"
    assert spec.grade(0.90) == "yellow"
    assert spec.grade(0.89) == "red"
    assert spec.grade(None) == "no-data"


def test_lower_is_better_bands_flip_the_comparisons():
    spec = spec_lib()
    assert spec.grade(0.0) == "green"
    assert spec.grade(0.05) == "green"
    assert spec.grade(0.10) == "yellow"
    assert spec.grade(0.16) == "red"


def test_inverted_thresholds_are_rejected():
    with pytest.raises(OpsError):
        spec_hib(green=0.5, yellow=0.9)
    with pytest.raises(OpsError):
        spec_lib(green=0.9, yellow=0.5)


def test_formatting_is_deterministic():
    assert spec_hib().format(0.954) == "95.4%"
    assert spec_hib().format(None) == "—"
    lag = MetricSpec(metric="lag", label="lag", unit="s",
                     higher_is_better=False, green=1.0, yellow=2.0)
    assert lag.format(420.0) == "420.0 s"
    count = MetricSpec(metric="n", label="n",
                       higher_is_better=False, green=0.0, yellow=2.0)
    assert count.format(3.0) == "3"
    assert count.format(2.5) == "2.50"


def test_status_severity_order():
    assert worst_status([]) == "green"
    assert worst_status(["green", "no-data"]) == "no-data"
    assert worst_status(["no-data", "yellow"]) == "yellow"
    assert worst_status(["yellow", "red", "green"]) == "red"
    assert status_rank("green") < status_rank("no-data") < status_rank("red")
    with pytest.raises(OpsError):
        status_rank("purple")


def test_spec_validation_rejects_bad_shapes():
    with pytest.raises(OpsError):
        QualitySpec(channel="", flow_pattern="*", metrics=(spec_hib(),))
    with pytest.raises(OpsError):
        QualitySpec(channel="c", flow_pattern="*", metrics=())
    with pytest.raises(OpsError):
        QualitySpec(channel="c", flow_pattern="*",
                    metrics=(spec_hib(), spec_hib()))


def test_dashboard_merges_matching_flows_and_reports_unmatched():
    bus = pipeline_bus(degraded_last=True)
    projection = fold_events(bus.events())
    spec = QualitySpec(channel="arecibo", flow_pattern="arecibo*",
                       metrics=(spec_hib(), spec_lib()))
    dashboard = build_dashboard(projection, [spec])
    (panel,) = dashboard.panels
    assert panel.flows == ("arecibo-figure1",)
    assert panel.cell("completeness").status == "green"
    assert panel.cell("degraded_rate").status == "red"  # 1/4 = 25%
    assert panel.status == "red"
    assert dashboard.status == "red"
    assert "weblab-serving" in dashboard.unmatched_flows


def test_duplicate_channels_are_rejected():
    projection = fold_events(pipeline_bus().events())
    spec = QualitySpec(channel="c", flow_pattern="*", metrics=(spec_hib(),))
    with pytest.raises(OpsError, match="duplicate"):
        build_dashboard(projection, [spec, spec])


def test_default_specs_cover_the_three_channels():
    specs = default_quality_specs()
    assert [spec.channel for spec in specs] == ["arecibo", "cleo", "weblab"]
    assert all(spec.metrics for spec in specs)
    projection = fold_events(pipeline_bus().events())
    dashboard = build_dashboard(projection, specs)
    panels = {panel.channel: panel for panel in dashboard.panels}
    assert panels["weblab"].flows == ("weblab-serving",)
    assert panels["cleo"].status == "no-data"  # idle is not healthy


def test_snapshot_is_json_stable():
    projection = fold_events(pipeline_bus().events())
    dashboard = build_dashboard(projection, default_quality_specs())
    first = dashboard_snapshot(dashboard)
    second = dashboard_snapshot(build_dashboard(projection, default_quality_specs()))
    assert first == second
    assert set(first["panels"]) == {"arecibo", "cleo", "weblab"}
