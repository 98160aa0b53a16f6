"""Deterministic alerting over the quality dashboard.

Alerts here are *evaluated*, never sampled: the evaluator walks rules in
declaration order against panels in spec order, so the same projection
sequence always yields the same alert sequence — which is what lets the
tests pin "two runs over the same log emit identical
``alert.raised``/``alert.cleared`` streams".

Three rule kinds cover the paper's operational failure modes:

* ``threshold`` — a graded status crossed the line (a red completeness
  cell; a whole panel going red);
* ``rate_of_change`` — a metric moved too fast between adjacent rollup
  windows (completeness falling 5 points in an hour is an incident even
  while the absolute value is still green);
* ``staleness`` — a channel stopped reporting (the failure nobody's
  threshold catches, because there is no value left to grade).

State is explicit: an alert raises once, stays active with exact dedup
accounting while the condition holds, clears when it stops, and counts a
**flap** when it re-raises after clearing — so a flapping channel is
visible as a number, not as log spam.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import OpsError
from repro.core.telemetry import Telemetry
from repro.ops.dashboard import (
    ChannelPanel,
    QualitySpec,
    build_dashboard,
    status_rank,
)
from repro.ops.rollup import RollupProjection

RULE_KINDS = ("threshold", "rate_of_change", "staleness")


@dataclass(frozen=True)
class AlertRule:
    """One alert condition.

    ``channel`` is an ``fnmatch`` pattern over panel channels.  For
    ``threshold`` rules, an empty ``metric`` watches the whole panel's
    status; a named metric watches that cell.  ``fire_on`` is the least
    severe status that fires (``"red"`` or ``"yellow"``).
    ``rate_of_change`` rules fire when ``metric`` moves by more than
    ``max_delta`` between the panel's two most recent windows with data;
    ``staleness`` rules fire when a panel has been silent longer than
    ``max_idle_s`` of simulated time (or has no data at all).
    """

    name: str
    kind: str
    channel: str = "*"
    metric: str = ""
    fire_on: str = "red"
    max_delta: float = 0.0
    max_idle_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise OpsError("alert rule needs a non-empty name")
        if self.kind not in RULE_KINDS:
            raise OpsError(
                f"alert rule {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {RULE_KINDS}"
            )
        if self.kind == "threshold" and self.fire_on not in ("yellow", "red"):
            raise OpsError(
                f"alert rule {self.name!r}: fire_on must be 'yellow' or "
                f"'red', got {self.fire_on!r}"
            )
        if self.kind == "rate_of_change":
            if not self.metric:
                raise OpsError(
                    f"alert rule {self.name!r}: rate_of_change needs a metric"
                )
            if self.max_delta <= 0:
                raise OpsError(
                    f"alert rule {self.name!r}: max_delta must be positive, "
                    f"got {self.max_delta}"
                )
        if self.kind == "staleness" and self.max_idle_s <= 0:
            raise OpsError(
                f"alert rule {self.name!r}: max_idle_s must be positive, "
                f"got {self.max_idle_s}"
            )

    def matches(self, channel: str) -> bool:
        return fnmatchcase(channel, self.channel)


@dataclass(frozen=True)
class Alert:
    """One active (or just-transitioned) alert instance."""

    rule: str
    channel: str
    metric: str
    value: Optional[float]
    detail: str
    raised_at: float
    flap: int


@dataclass(frozen=True)
class AlertTransition:
    """A state change from one evaluation: ``raised`` or ``cleared``."""

    action: str
    alert: Alert


def _fire_detail(rule: AlertRule, panel: ChannelPanel) -> Optional[Tuple[Optional[float], str]]:
    """``(value, detail)`` when the rule fires against the panel, else None."""
    if rule.kind == "threshold":
        if rule.metric:
            cell = panel.cell(rule.metric)
            if cell is None:
                return None
            if status_rank(cell.status) >= status_rank(rule.fire_on):
                return (
                    cell.value,
                    f"{cell.label} is {cell.status} at {cell.display}",
                )
            return None
        if status_rank(panel.status) >= status_rank(rule.fire_on):
            return (None, f"channel status is {panel.status}")
        return None
    # rate_of_change (staleness is routed to _stale by the evaluator)
    series = panel.quality.window_metric_series(rule.metric)
    if len(series) < 2:
        return None
    (_, previous), (window, current) = series[-2], series[-1]
    delta = current - previous
    if abs(delta) > rule.max_delta:
        return (
            current,
            f"{rule.metric} moved {delta:+.4f} into window {window} "
            f"(limit ±{rule.max_delta:.4f})",
        )
    return None


def _stale(rule: AlertRule, panel: ChannelPanel, now_s: float) -> Optional[Tuple[Optional[float], str]]:
    last = panel.last_sim_time
    if last is None:
        return (None, "channel has reported no data")
    idle = now_s - last
    if idle > rule.max_idle_s:
        return (
            idle,
            f"channel silent for {idle:.0f} s (limit {rule.max_idle_s:.0f} s)",
        )
    return None


class AlertEvaluator:
    """Stateful, deterministic rule evaluation across projections.

    Feed it successive projections of a growing log; it emits
    ``alert.raised``/``alert.cleared`` telemetry on transitions only and
    keeps exact counters for dedup (condition still firing, no new
    event) and flaps (re-raise after a clear).
    """

    def __init__(
        self,
        rules: Sequence[AlertRule],
        specs: Sequence[QualitySpec],
        telemetry: Optional[Telemetry] = None,
    ):
        names = [rule.name for rule in rules]
        if len(names) != len(set(names)):
            raise OpsError(f"duplicate alert rule names: {names}")
        self.rules = tuple(rules)
        self.specs = tuple(specs)
        self.telemetry = telemetry
        #: Lifetime counts: alerts raised, raises that followed a clear,
        #: firings folded into an alert already active, alerts cleared.
        self.raised = 0
        self.deduped = 0
        self.flapped = 0
        self.cleared = 0
        self._active: Dict[str, Alert] = {}
        self._raise_counts: Dict[str, int] = {}

    def active(self) -> List[Alert]:
        """Currently-active alerts, in stable (rule, channel) key order."""
        return [self._active[key] for key in sorted(self._active)]

    def evaluate(
        self,
        projection: RollupProjection,
        now_s: Optional[float] = None,
    ) -> List[AlertTransition]:
        """Evaluate every rule; return only state-changing transitions."""
        dashboard = build_dashboard(projection, self.specs)
        if now_s is None:
            now_s = dashboard.max_sim_time
        transitions: List[AlertTransition] = []
        firing: Dict[str, Tuple[AlertRule, ChannelPanel, Optional[float], str]] = {}
        for rule in self.rules:
            for panel in dashboard.panels:
                if not rule.matches(panel.channel):
                    continue
                if rule.kind == "staleness":
                    hit = _stale(rule, panel, now_s)
                else:
                    hit = _fire_detail(rule, panel)
                if hit is not None:
                    value, detail = hit
                    firing[f"{rule.name}:{panel.channel}"] = (
                        rule, panel, value, detail,
                    )
        for key in sorted(firing):
            rule, panel, value, detail = firing[key]
            if key in self._active:
                self.deduped += 1
                continue
            flap = self._raise_counts.get(key, 0)
            alert = Alert(
                rule=rule.name,
                channel=panel.channel,
                metric=rule.metric,
                value=value,
                detail=detail,
                raised_at=now_s,
                flap=flap,
            )
            self._active[key] = alert
            self._raise_counts[key] = flap + 1
            self.raised += 1
            if flap:
                self.flapped += 1
            transitions.append(AlertTransition(action="raised", alert=alert))
            if self.telemetry is not None:
                self.telemetry.emit(
                    "alert.raised",
                    rule.name,
                    channel=panel.channel,
                    metric=rule.metric,
                    value=value,
                    detail=detail,
                    flap=flap,
                )
        for key in sorted(self._active):
            if key in firing:
                continue
            alert = self._active.pop(key)
            self.cleared += 1
            transitions.append(AlertTransition(action="cleared", alert=alert))
            if self.telemetry is not None:
                self.telemetry.emit(
                    "alert.cleared",
                    alert.rule,
                    channel=alert.channel,
                    metric=alert.metric,
                    raised_at=alert.raised_at,
                    flap=alert.flap,
                )
        return transitions


def default_alert_rules() -> Tuple[AlertRule, ...]:
    """The stock rule set the CLI and examples run with."""
    return (
        AlertRule(name="quality-red", kind="threshold", fire_on="red"),
        AlertRule(
            name="completeness-drop",
            kind="rate_of_change",
            metric="completeness",
            max_delta=0.05,
        ),
        AlertRule(name="stale-channel", kind="staleness", max_idle_s=24 * 3600.0),
    )
