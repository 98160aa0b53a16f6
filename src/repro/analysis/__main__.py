"""CLI for the determinism linter and flow checker.

Usage::

    python -m repro.analysis src/                       # lint a tree
    python -m repro.analysis --format json src/         # JSON to stdout
    python -m repro.analysis --json-report out.json src/  # CI artifact
    python -m repro.analysis --flowcheck src/           # + figure flows
    python -m repro.analysis --select RPR001,RPR101 src/
    python -m repro.analysis --list-rules

One pass: every file is parsed once, the whole-program call graph and
effect summaries are built once, and every selected rule (default: all)
runs against them.  The JSON report carries the program's size
(modules, functions, call edges, cache/shard bindings) beside the
findings.

Exit status: 0 when clean (no unsuppressed findings and no flow
issues), 1 otherwise, 2 on usage errors (unknown rule code, empty
selection, a path that does not exist or holds no Python file).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.analysis import flowcheck
from repro.analysis.linter import (
    Analysis,
    Linter,
    registered_rules,
    render_text,
    report_dict,
    unsuppressed,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="determinism lint + static flow-graph checks",
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to lint"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="stdout report format (default: text)",
    )
    parser.add_argument(
        "--json-report", metavar="PATH",
        help="also write the full JSON report (lint + flowcheck) to PATH",
    )
    parser.add_argument(
        "--flowcheck", action="store_true",
        help="additionally check the repo's figure flows structurally",
    )
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="include suppressed findings in the text report",
    )
    parser.add_argument(
        "--select", metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        lines = [
            f"{cls.code}  {cls.name}: {cls.description}"
            for cls in registered_rules()
        ]
        _emit("\n".join(lines))
        return 0

    if not options.paths:
        parser.error("no paths given (or use --list-rules)")

    select = options.select.split(",") if options.select is not None else None
    try:
        linter = Linter(select=select)
        analysis = Analysis.build(options.paths)
    except ValueError as exc:
        parser.error(str(exc))
    findings = linter.lint(analysis)

    report = report_dict(findings, options.paths)
    report["program"] = analysis.stats()

    checked = []
    if options.flowcheck:
        checked = [
            (flow, flowcheck.check_flow(flow, spec))
            for flow, spec in flowcheck.figure_flows()
        ]
        report["flowcheck"] = flowcheck.issues_dict(checked)

    if options.format == "json":
        _emit(json.dumps(report, indent=2, sort_keys=True))
    else:
        _emit(render_text(findings, show_suppressed=options.show_suppressed))
        for flow, issues in checked:
            _emit(f"flowcheck {flow.name}: " + (
                "ok" if not issues else f"{len(issues)} issue(s)"
            ))
            for issue in issues:
                _emit("  " + issue.render())

    if options.json_report:
        with open(options.json_report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")

    failed = unsuppressed(findings) or any(issues for _, issues in checked)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
