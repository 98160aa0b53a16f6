"""The deterministic alert evaluator.

Contract under test: transitions fire exactly on state changes (raise
once, dedup while held, clear on recovery, flap count on re-raise), the
three rule kinds detect their conditions, rule validation rejects bad
specs, and two evaluators fed the same projections emit byte-identical
event streams.
"""

import pytest

from repro.core.errors import OpsError
from repro.core.telemetry import Telemetry
from repro.ops.alerts import AlertEvaluator, AlertRule, default_alert_rules
from repro.ops.dashboard import MetricSpec, QualitySpec

from tests.conftest import fingerprint
from tests.ops.conftest import fold_events, pipeline_bus


def arecibo_spec():
    return QualitySpec(
        channel="arecibo",
        flow_pattern="arecibo*",
        metrics=(
            MetricSpec(metric="completeness", label="completeness", unit="%",
                       higher_is_better=True, green=0.95, yellow=0.90),
            MetricSpec(metric="degraded_rate", label="degraded", unit="%",
                       higher_is_better=False, green=0.05, yellow=0.15),
        ),
    )


def healthy_projection():
    return fold_events(pipeline_bus(degraded_last=False).events())


def degraded_projection():
    return fold_events(pipeline_bus(degraded_last=True).events())


def test_rule_validation():
    with pytest.raises(OpsError):
        AlertRule(name="", kind="threshold")
    with pytest.raises(OpsError):
        AlertRule(name="r", kind="nonsense")
    with pytest.raises(OpsError):
        AlertRule(name="r", kind="threshold", fire_on="green")
    with pytest.raises(OpsError):
        AlertRule(name="r", kind="rate_of_change", metric="")
    with pytest.raises(OpsError):
        AlertRule(name="r", kind="rate_of_change", metric="m", max_delta=0.0)
    with pytest.raises(OpsError):
        AlertRule(name="r", kind="staleness", max_idle_s=-1.0)
    with pytest.raises(OpsError):
        AlertEvaluator(
            [AlertRule(name="same", kind="threshold"),
             AlertRule(name="same", kind="threshold")],
            [arecibo_spec()],
        )


def test_threshold_raise_dedup_clear_and_flap():
    rule = AlertRule(name="quality-red", kind="threshold", fire_on="red")
    evaluator = AlertEvaluator([rule], [arecibo_spec()])

    raised = evaluator.evaluate(degraded_projection())
    assert [(t.action, t.alert.rule) for t in raised] == [("raised", "quality-red")]
    assert raised[0].alert.flap == 0
    assert len(evaluator.active()) == 1

    deduped = evaluator.evaluate(degraded_projection())
    assert deduped == []
    assert evaluator.deduped == 1

    cleared = evaluator.evaluate(healthy_projection())
    assert [t.action for t in cleared] == ["cleared"]
    assert evaluator.active() == []

    flapped = evaluator.evaluate(degraded_projection())
    assert [t.action for t in flapped] == ["raised"]
    assert flapped[0].alert.flap == 1
    assert evaluator.flapped == 1
    assert evaluator.raised == 2
    assert evaluator.cleared == 1


def test_threshold_rule_can_watch_one_metric():
    rule = AlertRule(name="degraded", kind="threshold",
                     metric="degraded_rate", fire_on="yellow")
    evaluator = AlertEvaluator([rule], [arecibo_spec()])
    transitions = evaluator.evaluate(degraded_projection())
    assert transitions[0].alert.metric == "degraded_rate"
    assert transitions[0].alert.value == pytest.approx(0.25)


def test_rate_of_change_fires_on_window_delta():
    bus = Telemetry()
    with bus.span("arecibo-figure1"):
        # Window 0: 2/2 stages complete; window 1: 1/2 — completeness
        # falls 0.5 between adjacent windows.
        bus.emit("flow.start", "arecibo-figure1", stages=2)
        bus.emit("stage.finish", "a", degraded=False, cpu_seconds=1.0)
        bus.emit("stage.finish", "b", degraded=False, cpu_seconds=1.0)
        bus.clock.advance(3600.0)
        bus.emit("flow.start", "arecibo-figure1", stages=2)
        bus.emit("stage.finish", "c", degraded=False, cpu_seconds=1.0)
    projection = fold_events(bus.events(), window_s=3600.0)
    rule = AlertRule(name="drop", kind="rate_of_change",
                     metric="completeness", max_delta=0.05)
    evaluator = AlertEvaluator([rule], [arecibo_spec()])
    transitions = evaluator.evaluate(projection)
    assert [t.action for t in transitions] == ["raised"]
    assert "completeness moved -0.5000" in transitions[0].alert.detail


def test_staleness_fires_on_silence_and_on_no_data():
    rule = AlertRule(name="stale", kind="staleness", max_idle_s=1000.0)
    evaluator = AlertEvaluator([rule], [arecibo_spec()])
    projection = healthy_projection()
    horizon = projection.max_sim_time
    assert evaluator.evaluate(projection, now_s=horizon) == []
    transitions = evaluator.evaluate(projection, now_s=horizon + 2000.0)
    assert [t.action for t in transitions] == ["raised"]
    # A channel with no data at all also fires.
    empty_eval = AlertEvaluator([rule], [arecibo_spec()])
    empty = fold_events([])
    raised = empty_eval.evaluate(empty)
    assert raised[0].alert.detail == "channel has reported no data"


def test_channel_pattern_scopes_rules():
    rule = AlertRule(name="scoped", kind="threshold", channel="weblab*")
    evaluator = AlertEvaluator([rule], [arecibo_spec()])
    assert evaluator.evaluate(degraded_projection()) == []


def test_identical_runs_emit_identical_alert_streams():
    def run():
        bus = Telemetry()
        evaluator = AlertEvaluator(
            default_alert_rules(),
            [arecibo_spec()],
            telemetry=bus,
        )
        evaluator.evaluate(degraded_projection())
        evaluator.evaluate(healthy_projection())
        evaluator.evaluate(degraded_projection())
        return bus

    first, second = run(), run()
    assert fingerprint(first) == fingerprint(second)
    kinds = [event.kind for event in first.events()]
    assert "alert.raised" in kinds and "alert.cleared" in kinds
