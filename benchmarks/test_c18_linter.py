"""C18 — the determinism linter: self-check table and lint-pass cost.

Two tables:

* **Self-check** — per-rule violation counts over ``src/``: what the
  linter found when it was first pointed at the tree ("at
  introduction", measured against the pre-linter commit and recorded
  here as constants) versus the current tree ("after cleanup").  The
  cleanup fixed one unordered set iteration outright and converted the
  four intentional operational timers into visible, accounted
  ``# repro: noqa[RPR002]`` suppressions.
* **Lint pass** — wall time and file count for the full-repo lint (the
  one pass: every rule, C23 breaks its cost down) plus the structural
  flowcheck of both figure graphs, i.e. the cost the ``analysis`` CI job
  pays on every push.
"""

import time
from pathlib import Path

from repro.analysis.flowcheck import check_flow, figure_flows
from repro.analysis.linter import Linter, registered_rules, summary_counts

SRC = Path(__file__).resolve().parents[1] / "src"

# Flagged (unsuppressed) counts per rule over src/ at the linter's
# introduction, measured by running it against the immediately preceding
# commit: four operational perf-counter reads and one set-ordered loop.
# RPR002 additionally collected one allowlist-suppressed finding (the
# sanctioned telemetry wall_time site).
AT_INTRODUCTION = {
    "RPR001": 0,
    "RPR002": 4,
    "RPR003": 0,
    "RPR004": 1,
}


def test_c18_linter_self_check(report_rows):
    started = time.perf_counter()
    findings = Linter().lint_paths([SRC])
    lint_seconds = time.perf_counter() - started
    counts = summary_counts(findings)

    rows = []
    # The RPR00x rules only: the whole-program RPR1xx rules postdate
    # this table and have their own (C23).
    for cls in registered_rules():
        if cls.code not in AT_INTRODUCTION:
            continue
        bucket = counts.get(cls.code, {"flagged": 0, "suppressed": 0})
        rows.append(
            {
                "rule": cls.code,
                "name": cls.name,
                "at_introduction": AT_INTRODUCTION[cls.code],
                "after_cleanup": bucket["flagged"],
                "suppressed_now": bucket["suppressed"],
            }
        )
    report_rows("C18: linter self-check (violations over src/)", rows)

    # The acceptance bar: the codebase passes its own linter.
    assert all(row["after_cleanup"] == 0 for row in rows)
    # The cleanup converted real findings into fixes or visible noqa; the
    # workload replayer added five accounted wall-latency probes and the
    # two grid-service timers went when nothing read them: 2 preload +
    # 5 replayer + the allowlisted stamp — test_selfcheck pins each site.
    assert sum(row["at_introduction"] for row in rows) == 5
    assert sum(row["suppressed_now"] for row in rows) == 8

    started = time.perf_counter()
    flow_issues = {
        flow.name: check_flow(flow, spec) for flow, spec in figure_flows()
    }
    flowcheck_seconds = time.perf_counter() - started
    assert all(not issues for issues in flow_issues.values())

    files = len(sorted(SRC.rglob("*.py")))
    report_rows(
        "C18: static-analysis pass cost",
        [
            {
                "pass": "lint src/",
                "files": files,
                "findings": len(findings),
                "wall_s": round(lint_seconds, 3),
            },
            {
                "pass": "flowcheck figures",
                "files": len(flow_issues),
                "findings": 0,
                "wall_s": round(flowcheck_seconds, 3),
            },
        ],
    )
