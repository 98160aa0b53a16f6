"""Nightly report: a self-contained HTML page over the dashboard.

The operational cadence in all three case studies was the *nightly
digest*: one page a human scans in thirty seconds — overall colour,
per-channel panels, what moved since yesterday, what's alerting.  This
module renders exactly that from a :class:`~repro.ops.dashboard.Dashboard`,
with two hard properties:

* **byte-reproducible** — the page is a pure function of (dashboard,
  previous snapshot, alerts, title).  No wall clock, no random ids, no
  environment leakage: the report is stamped with the telemetry
  horizon (max simulated time) instead of "generated at".  Two runs
  over the same log produce identical bytes, which is what makes the
  report diffable and the byte-identity test possible.
* **self-contained** — one file, inline CSS, no scripts, no fetches;
  it archives and attaches to CI artifacts as-is.

Trend deltas come from the *previous* report's JSON snapshot
(:func:`~repro.ops.dashboard.dashboard_snapshot`), so "what moved" is
computed against whatever the operator last looked at, not against an
arbitrary window.
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.ops.alerts import Alert
from repro.ops.dashboard import (
    STATUS_ORDER,
    ChannelPanel,
    Dashboard,
    MetricCell,
    dashboard_snapshot,
)

_STATUS_COLOR = {
    "green": "#1a7f37",
    "yellow": "#9a6700",
    "red": "#cf222e",
    "no-data": "#57606a",
}

_CSS = """
body { font-family: Georgia, serif; margin: 2rem auto; max-width: 60rem;
       color: #1f2328; }
h1 { font-size: 1.6rem; border-bottom: 2px solid #d0d7de; }
h2 { font-size: 1.2rem; margin-top: 1.6rem; }
table { border-collapse: collapse; width: 100%; margin: 0.6rem 0; }
th, td { border: 1px solid #d0d7de; padding: 0.3rem 0.6rem;
         text-align: left; font-size: 0.95rem; }
th { background: #f6f8fa; }
.badge { display: inline-block; padding: 0.1rem 0.5rem; border-radius: 0.6rem;
         color: #fff; font-size: 0.85rem; }
.delta { color: #57606a; font-size: 0.85rem; }
.meta { color: #57606a; font-size: 0.9rem; }
""".strip()


def _badge(status: str) -> str:
    color = _STATUS_COLOR.get(status, "#57606a")
    return (
        f'<span class="badge" style="background:{color}">'
        f"{html.escape(status)}</span>"
    )


def _format_delta(current: Optional[float], previous: Optional[float]) -> str:
    """The trend annotation for a cell, ``""`` when there is no story."""
    if current is None or previous is None:
        return ""
    delta = current - previous
    if delta == 0:
        return "(=)"
    return f"({delta:+.4g})"


def _previous_cells(
    previous: Optional[Mapping[str, object]], channel: str
) -> Dict[str, Mapping[str, object]]:
    if not previous:
        return {}
    panels = previous.get("panels")
    if not isinstance(panels, Mapping):
        return {}
    panel = panels.get(channel)
    if not isinstance(panel, Mapping):
        return {}
    cells = panel.get("cells")
    if not isinstance(cells, Mapping):
        return {}
    return {
        name: cell for name, cell in cells.items() if isinstance(cell, Mapping)
    }


def _cell_row(
    cell: MetricCell, previous_cell: Optional[Mapping[str, object]]
) -> str:
    previous_value = None
    if previous_cell is not None:
        raw = previous_cell.get("value")
        if isinstance(raw, (int, float)):
            previous_value = float(raw)
    delta = _format_delta(cell.value, previous_value)
    delta_html = f' <span class="delta">{html.escape(delta)}</span>' if delta else ""
    return (
        "<tr>"
        f"<td>{html.escape(cell.label)}</td>"
        f"<td>{html.escape(cell.display)}{delta_html}</td>"
        f"<td>{_badge(cell.status)}</td>"
        "</tr>"
    )


def _panel_section(
    panel: ChannelPanel, previous: Optional[Mapping[str, object]]
) -> List[str]:
    previous_cells = _previous_cells(previous, panel.channel)
    lines = [
        f"<h2>{html.escape(panel.channel)} {_badge(panel.status)}</h2>",
        '<p class="meta">'
        + html.escape(
            f"flows: {', '.join(panel.flows) if panel.flows else '(none)'}"
            f" · events: {panel.events}"
            + (
                f" · last activity at t={panel.last_sim_time:.0f} s"
                if panel.last_sim_time is not None
                else ""
            )
        )
        + "</p>",
        "<table><tr><th>metric</th><th>value</th><th>status</th></tr>",
    ]
    for cell in panel.cells:
        lines.append(_cell_row(cell, previous_cells.get(cell.metric)))
    lines.append("</table>")
    return lines


def _alerts_section(alerts: Sequence[Alert]) -> List[str]:
    lines = ["<h2>Active alerts</h2>"]
    if not alerts:
        lines.append('<p class="meta">none</p>')
        return lines
    lines.append(
        "<table><tr><th>rule</th><th>channel</th><th>detail</th>"
        "<th>raised at</th><th>flaps</th></tr>"
    )
    for alert in alerts:
        lines.append(
            "<tr>"
            f"<td>{html.escape(alert.rule)}</td>"
            f"<td>{html.escape(alert.channel)}</td>"
            f"<td>{html.escape(alert.detail)}</td>"
            f"<td>t={alert.raised_at:.0f} s</td>"
            f"<td>{alert.flap}</td>"
            "</tr>"
        )
    lines.append("</table>")
    return lines


def render_report(
    dashboard: Dashboard,
    *,
    title: str = "Operations report",
    previous: Optional[Mapping[str, object]] = None,
    alerts: Sequence[Alert] = (),
) -> str:
    """Render the dashboard to one self-contained HTML page.

    ``previous`` is a prior :func:`dashboard_snapshot` dict; when given,
    every cell that also existed last time carries a ``(+0.02)``-style
    trend delta.  ``alerts`` is the evaluator's currently-active list.
    """
    counts = dashboard.status_counts()
    count_text = " · ".join(
        f"{counts[name]} {name}" for name in STATUS_ORDER if counts[name]
    )
    lines = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
        f"<style>{_CSS}</style>",
        "</head><body>",
        f"<h1>{html.escape(title)} {_badge(dashboard.status)}</h1>",
        '<p class="meta">'
        + html.escape(
            f"telemetry horizon: t={dashboard.max_sim_time:.0f} s"
            f" · channels: {count_text or 'none'}"
            + (
                f" · truncated trailing lines skipped: {dashboard.truncated_lines}"
                if dashboard.truncated_lines
                else ""
            )
            + (
                f" · unmatched flows: {', '.join(dashboard.unmatched_flows)}"
                if dashboard.unmatched_flows
                else ""
            )
        )
        + "</p>",
    ]
    for panel in dashboard.panels:
        lines.extend(_panel_section(panel, previous))
    lines.extend(_alerts_section(alerts))
    lines.append("</body></html>")
    return "\n".join(lines) + "\n"


def write_report(
    dashboard: Dashboard,
    out: Union[str, Path],
    *,
    title: str = "Operations report",
    previous: Optional[Mapping[str, object]] = None,
    alerts: Sequence[Alert] = (),
    snapshot: Optional[Union[str, Path]] = None,
) -> Path:
    """Write the HTML report (and optionally its JSON snapshot) to disk.

    The snapshot is what a later run passes back as ``previous`` to get
    trend deltas — the report's own memory between nights.
    """
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        render_report(dashboard, title=title, previous=previous, alerts=alerts),
        encoding="utf-8",
    )
    if snapshot is not None:
        snapshot = Path(snapshot)
        snapshot.parent.mkdir(parents=True, exist_ok=True)
        snapshot.write_text(
            json.dumps(dashboard_snapshot(dashboard), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
    return out


def load_snapshot(path: Union[str, Path]) -> Dict[str, object]:
    """Load a previous report's JSON snapshot for trend deltas."""
    return json.loads(Path(path).read_text(encoding="utf-8"))
