"""The nightly HTML report.

Contract under test: byte-identical output for identical inputs, trend
deltas against a previous snapshot, active alerts rendered, operator
signals (truncation, unmatched flows) surfaced, and everything escaped.
"""

from repro.ops import default_quality_specs
from repro.ops.alerts import AlertEvaluator, default_alert_rules
from repro.ops.dashboard import (
    MetricSpec,
    QualitySpec,
    build_dashboard,
    dashboard_snapshot,
)
from repro.ops.report import load_snapshot, render_report, write_report

from tests.ops.conftest import fold_events, pipeline_bus


def dashboard(degraded_last=True):
    projection = fold_events(pipeline_bus(degraded_last=degraded_last).events())
    return build_dashboard(projection, default_quality_specs())


def test_report_is_byte_identical_across_runs():
    first = render_report(dashboard())
    second = render_report(dashboard())
    assert first == second
    assert first.startswith("<!DOCTYPE html>")
    assert "<script" not in first  # self-contained, no scripts


def test_report_shows_every_channel_and_overall_status():
    page = render_report(dashboard())
    for channel in ("arecibo", "cleo", "weblab"):
        assert f"<h2>{channel} " in page
    assert ">red</span>" in page  # degraded run goes red
    assert "telemetry horizon" in page


def test_trend_deltas_against_previous_snapshot():
    previous = dashboard_snapshot(dashboard(degraded_last=False))
    page = render_report(dashboard(degraded_last=True), previous=previous)
    # degraded_rate moved 0 -> 0.25 between the two nights.
    assert "(+0.25)" in page
    # completeness did not move.
    assert "(=)" in page
    # Without a previous snapshot there is no delta annotation at all.
    assert "(+0.25)" not in render_report(dashboard(degraded_last=True))


def test_active_alerts_are_rendered():
    projection = fold_events(pipeline_bus(degraded_last=True).events())
    evaluator = AlertEvaluator(default_alert_rules(), default_quality_specs())
    evaluator.evaluate(projection)
    page = render_report(
        build_dashboard(projection, default_quality_specs()),
        alerts=evaluator.active(),
    )
    assert "quality-red" in page
    empty = render_report(dashboard())
    assert "none" in empty


def test_titles_and_details_are_escaped():
    page = render_report(dashboard(), title="<img src=x>")
    assert "<img" not in page
    assert "&lt;img src=x&gt;" in page


def test_write_report_and_snapshot_round_trip(tmp_path):
    out = tmp_path / "nightly" / "report.html"
    snapshot = tmp_path / "nightly" / "snap.json"
    first = dashboard(degraded_last=False)
    write_report(first, out, snapshot=snapshot)
    assert out.read_text(encoding="utf-8") == render_report(first)
    restored = load_snapshot(snapshot)
    assert restored == dashboard_snapshot(first)
    # The snapshot feeds the next night's deltas.
    page = render_report(dashboard(degraded_last=True), previous=restored)
    assert "(+0.25)" in page


def test_unmatched_flows_are_surfaced():
    projection = fold_events(pipeline_bus().events())
    only_arecibo = QualitySpec(
        channel="arecibo", flow_pattern="arecibo*",
        metrics=(MetricSpec(metric="completeness", label="completeness",
                            unit="%", higher_is_better=True,
                            green=0.95, yellow=0.90),),
    )
    page = render_report(build_dashboard(projection, [only_arecibo]))
    assert "unmatched flows" in page
    assert "weblab-serving" in page
