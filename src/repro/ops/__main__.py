"""Operations-console CLI: ``python -m repro.ops <command> LOG [LOG ...]``.

Three subcommands over persisted telemetry logs:

* ``report`` — build the rollup, grade the dashboard, evaluate alerts,
  and write the nightly HTML report (optionally a JSON snapshot for the
  next night's trend deltas);
* ``status`` — one line per channel on stdout; exit 1 when any channel
  is red, so a cron wrapper can page without parsing anything;
* ``alerts`` — evaluate the stock (or threshold-only) rules and print
  raised alerts; exit 1 while any alert is active.

Exit 1 only ever means "red" or "alerting": a log that cannot be read
(missing, corrupt, a line that is not an event) is one ``error:`` line on
stderr and exit 2 from every command.

Several LOG paths build one merged projection — the "whole-site" view
over per-pipeline logs.  Pass ``--cache-root`` to serve repeat reads
from cached projections instead of re-scanning JSONL.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.core.cachestore import DiskCacheStore
from repro.core.errors import ReproError
from repro.ops import default_quality_specs
from repro.ops.alerts import AlertEvaluator, default_alert_rules
from repro.ops.dashboard import build_dashboard
from repro.ops.report import load_snapshot, write_report
from repro.ops.rollup import (
    DEFAULT_WINDOW_S,
    RollupProjection,
    build_rollup,
    merge_projections,
)


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _load_projection(
    logs: Sequence[str], window_s: float, cache_root: Optional[str]
) -> RollupProjection:
    store = DiskCacheStore(Path(cache_root)) if cache_root else None
    projections = [
        build_rollup(path, window_s=window_s, store=store) for path in logs
    ]
    if len(projections) == 1:
        return projections[0]
    return merge_projections(projections)


def _cmd_report(args: argparse.Namespace) -> int:
    projection = _load_projection(args.logs, args.window, args.cache_root)
    specs = default_quality_specs()
    dashboard = build_dashboard(projection, specs)
    evaluator = AlertEvaluator(default_alert_rules(), specs)
    evaluator.evaluate(projection)
    previous = load_snapshot(args.previous) if args.previous else None
    out = write_report(
        dashboard,
        args.out,
        title=args.title,
        previous=previous,
        alerts=evaluator.active(),
        snapshot=args.snapshot,
    )
    _emit(f"report: {out}")
    if args.snapshot:
        _emit(f"snapshot: {args.snapshot}")
    _emit(f"status: {dashboard.status}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    projection = _load_projection(args.logs, args.window, args.cache_root)
    dashboard = build_dashboard(projection, default_quality_specs())
    for panel in dashboard.panels:
        _emit(f"{panel.channel}: {panel.status} ({panel.events} events)")
    _emit(f"overall: {dashboard.status}")
    return 1 if dashboard.status == "red" else 0


def _cmd_alerts(args: argparse.Namespace) -> int:
    projection = _load_projection(args.logs, args.window, args.cache_root)
    evaluator = AlertEvaluator(default_alert_rules(), default_quality_specs())
    evaluator.evaluate(projection)
    active = evaluator.active()
    for alert in active:
        _emit(f"{alert.rule} [{alert.channel}]: {alert.detail}")
    if not active:
        _emit("no active alerts")
    return 1 if active else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ops",
        description="Operations console over persisted telemetry logs.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("logs", nargs="+", metavar="LOG",
                         help="telemetry JSONL log path(s)")
        sub.add_argument("--window", type=float, default=DEFAULT_WINDOW_S,
                         help="rollup window width in simulated seconds")
        sub.add_argument("--cache-root", default=None,
                         help="DiskCacheStore root for cached projections")

    report = subparsers.add_parser(
        "report", help="write the nightly HTML report")
    common(report)
    report.add_argument("--out", default="ops_report.html",
                        help="HTML output path")
    report.add_argument("--snapshot", default=None,
                        help="also write a JSON snapshot for trend deltas")
    report.add_argument("--previous", default=None,
                        help="previous snapshot JSON to diff against")
    report.add_argument("--title", default="Operations report")
    report.set_defaults(func=_cmd_report)

    status = subparsers.add_parser(
        "status", help="one line per channel; exit 1 when red")
    common(status)
    status.set_defaults(func=_cmd_status)

    alerts = subparsers.add_parser(
        "alerts", help="evaluate alert rules; exit 1 while any is active")
    common(alerts)
    alerts.set_defaults(func=_cmd_alerts)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ReproError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
