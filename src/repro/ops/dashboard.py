"""Quality dashboard model: threshold bands over rollup projections.

The paper's operational teams watched *quality signals*, not raw logs —
completeness of nightly processing, degraded-serve rates, upload lag —
and acted on colour: green (within target), yellow (drifting), red
(act now).  This module is that judgment layer, kept strictly separate
from the fold (:mod:`repro.ops.rollup` computes, this module grades):

* :class:`MetricSpec` — one metric's label, unit, direction, and the
  green/yellow thresholds that band it (the traffic-light pattern from
  SNIPPETS.md snippets 1 and 3);
* :class:`QualitySpec` — a channel: a flow-name pattern plus the metric
  specs that matter for flows of that kind.  Each pipeline package ships
  its own (``repro.arecibo.quality`` etc.) because "healthy" means
  different things for a tape-recall archive and a serving tier;
* :func:`build_dashboard` — match specs against a projection's flows,
  grade every cell, and roll panel/overall status up as the *worst*
  cell, so one red metric is never averaged away.

Everything here is a pure function of (projection, specs): same inputs,
same dashboard, cell for cell — the property the byte-reproducible
nightly report and the deterministic alert evaluator both lean on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import OpsError
from repro.ops.rollup import FlowQuality, RollupProjection

#: Status values in severity order; dashboards and alerts compare by rank.
STATUS_ORDER = ("green", "no-data", "yellow", "red")
_STATUS_RANK = {name: rank for rank, name in enumerate(STATUS_ORDER)}


def status_rank(status: str) -> int:
    """Severity rank of a status (its index in :data:`STATUS_ORDER`)."""
    try:
        return _STATUS_RANK[status]
    except KeyError:
        raise OpsError(
            f"unknown status {status!r}; expected one of {STATUS_ORDER}"
        ) from None


def worst_status(statuses: Sequence[str]) -> str:
    """The most severe status present (``green`` when given nothing)."""
    worst = "green"
    for status in statuses:
        if _STATUS_RANK[status] > _STATUS_RANK[worst]:
            worst = status
    return worst


@dataclass(frozen=True)
class MetricSpec:
    """One graded metric: thresholds plus presentation.

    ``green`` and ``yellow`` are the band edges.  When
    ``higher_is_better``, a value at or above ``green`` is green, at or
    above ``yellow`` is yellow, below is red; when lower is better the
    comparisons flip.  A missing value (no data to judge) grades
    ``no-data`` — idle is not healthy.
    """

    metric: str
    label: str
    green: float
    yellow: float
    unit: str = ""
    higher_is_better: bool = True

    def __post_init__(self) -> None:
        if self.higher_is_better:
            if self.green < self.yellow:
                raise OpsError(
                    f"metric {self.metric!r}: higher-is-better needs "
                    f"green >= yellow, got {self.green} < {self.yellow}"
                )
        elif self.green > self.yellow:
            raise OpsError(
                f"metric {self.metric!r}: lower-is-better needs "
                f"green <= yellow, got {self.green} > {self.yellow}"
            )

    def grade(self, value: Optional[float]) -> str:
        if value is None:
            return "no-data"
        if self.higher_is_better:
            if value >= self.green:
                return "green"
            if value >= self.yellow:
                return "yellow"
            return "red"
        if value <= self.green:
            return "green"
        if value <= self.yellow:
            return "yellow"
        return "red"

    def format(self, value: Optional[float]) -> str:
        """Deterministic display string for a cell value."""
        if value is None:
            return "—"
        if self.unit == "%":
            return f"{value * 100:.1f}%"
        if self.unit == "s":
            return f"{value:.1f} s"
        if float(value).is_integer():
            return str(int(value))
        return f"{value:.2f}"


@dataclass(frozen=True)
class QualitySpec:
    """A dashboard channel: which flows it covers and how to grade them."""

    channel: str
    flow_pattern: str
    metrics: Tuple[MetricSpec, ...]

    def __post_init__(self) -> None:
        if not self.channel:
            raise OpsError("quality spec needs a non-empty channel name")
        if not self.metrics:
            raise OpsError(f"quality spec {self.channel!r} grades no metrics")
        names = [spec.metric for spec in self.metrics]
        if len(names) != len(set(names)):
            raise OpsError(
                f"quality spec {self.channel!r} repeats a metric: {names}"
            )

    def matches(self, flow: str) -> bool:
        return fnmatchcase(flow, self.flow_pattern)


@dataclass(frozen=True)
class MetricCell:
    """One graded dashboard cell."""

    metric: str
    label: str
    value: Optional[float]
    display: str
    status: str


@dataclass
class ChannelPanel:
    """One channel's panel: matched flows merged, every metric graded."""

    channel: str
    spec: QualitySpec
    flows: Tuple[str, ...]
    quality: FlowQuality
    cells: Tuple[MetricCell, ...]

    @property
    def status(self) -> str:
        return worst_status([cell.status for cell in self.cells])

    @property
    def last_sim_time(self) -> Optional[float]:
        return self.quality.totals.last_sim_time

    @property
    def events(self) -> int:
        return self.quality.totals.events

    def cell(self, metric: str) -> Optional[MetricCell]:
        for candidate in self.cells:
            if candidate.metric == metric:
                return candidate
        return None


@dataclass
class Dashboard:
    """The graded surface: one panel per channel, spec order preserved."""

    panels: Tuple[ChannelPanel, ...]
    max_sim_time: float
    truncated_lines: int
    unmatched_flows: Tuple[str, ...]

    @property
    def status(self) -> str:
        return worst_status([panel.status for panel in self.panels])

    def status_counts(self) -> Dict[str, int]:
        counts = {name: 0 for name in STATUS_ORDER}
        for panel in self.panels:
            counts[panel.status] += 1
        return counts


def build_dashboard(
    projection: RollupProjection,
    specs: Sequence[QualitySpec],
) -> Dashboard:
    """Grade a projection against channel specs.

    Flows are matched by each spec's pattern and merged per channel (a
    channel may cover several flows — e.g. sharded runs of one
    pipeline); flows no spec claims are reported, not silently dropped.
    """
    channels = [spec.channel for spec in specs]
    if len(channels) != len(set(channels)):
        raise OpsError(f"duplicate dashboard channels: {channels}")
    matched: set = set()
    panels: List[ChannelPanel] = []
    flow_names = sorted(projection.flows)
    for spec in specs:
        covered = tuple(name for name in flow_names if spec.matches(name))
        matched.update(covered)
        quality = FlowQuality()
        for name in covered:
            quality.merge(projection.flows[name])
        values = quality.totals.metrics()
        cells = tuple(
            MetricCell(
                metric=metric_spec.metric,
                label=metric_spec.label,
                value=values.get(metric_spec.metric),
                display=metric_spec.format(values.get(metric_spec.metric)),
                status=metric_spec.grade(values.get(metric_spec.metric)),
            )
            for metric_spec in spec.metrics
        )
        panels.append(
            ChannelPanel(
                channel=spec.channel,
                spec=spec,
                flows=covered,
                quality=quality,
                cells=cells,
            )
        )
    unmatched = tuple(name for name in flow_names if name not in matched)
    return Dashboard(
        panels=tuple(panels),
        max_sim_time=projection.max_sim_time,
        truncated_lines=projection.truncated_lines,
        unmatched_flows=unmatched,
    )


def dashboard_snapshot(dashboard: Dashboard) -> Dict[str, object]:
    """JSON-stable snapshot: the trend baseline the next report diffs
    against, and the ``--snapshot`` CLI output."""
    return {
        "status": dashboard.status,
        "max_sim_time": dashboard.max_sim_time,
        "truncated_lines": dashboard.truncated_lines,
        "unmatched_flows": list(dashboard.unmatched_flows),
        "panels": {
            panel.channel: {
                "status": panel.status,
                "flows": list(panel.flows),
                "events": panel.events,
                "last_sim_time": panel.last_sim_time,
                "cells": {
                    cell.metric: {
                        "label": cell.label,
                        "value": cell.value,
                        "display": cell.display,
                        "status": cell.status,
                    }
                    for cell in panel.cells
                },
            }
            for panel in dashboard.panels
        },
    }
