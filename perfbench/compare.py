"""Noise-banded comparison of two result files.

One row per (end-to-end metric, workload): each side's median and
quartiles, the relative change (positive = worse), and a verdict against
the metric's bound from ``BENCHMARK.json``:

* ``missing`` — the first file has runs of the pair and the second has
  none: a workload that was dropped or crashed must not compare clean;
* ``regressed`` — the second median is worse than the first by more than
  the bound;
* ``unresolved`` — not regressed, but either side's own spread (distance
  between its quartiles over its median) is wider than the bound, so
  "unchanged" cannot be claimed — unless every run of the second reads
  better than every run of the first;
* ``ok`` — otherwise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


def bounds() -> Dict[str, Tuple[str, float]]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (m["better"], float(m["bound"])) for m in declared["end_to_end"]}


def samples(result_file: dict) -> Dict[Tuple[str, str], List[float]]:
    """(metric, workload) -> one value per untraced run in the file."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in result_file["runs"]:
        for metric, entry in run["result"]["metrics"].items():
            values.setdefault((metric, run["workload"]), []).append(entry["value"])
    return values


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


def spread(values: Sequence[float]) -> float:
    low, mid, high = quartiles(values)
    return (high - low) / mid if mid else 0.0


def compare(first: dict, second: dict) -> List[dict]:
    rows = []
    a_samples, b_samples = samples(first), samples(second)
    declared = bounds()
    for (metric, workload), a in sorted(a_samples.items()):
        if metric not in declared:
            continue
        better, bound = declared[metric]
        b = b_samples.get((metric, workload))
        if not b:
            rows.append({
                "metric": metric, "workload": workload, "bound": bound,
                "first": dict(zip(("q1", "median", "q3"), quartiles(a)), n=len(a)),
                "second": None, "worse_by": None, "verdict": "missing",
            })
            continue
        a_mid, b_mid = statistics.median(a), statistics.median(b)
        worse_by = (b_mid - a_mid) / a_mid if better == "lower" else (a_mid - b_mid) / a_mid
        if better == "lower":
            all_better = max(b) < min(a)
        else:
            all_better = min(b) > max(a)
        if worse_by > bound:
            verdict = "regressed"
        elif max(spread(a), spread(b)) > bound and not all_better:
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append({
            "metric": metric, "workload": workload, "bound": bound,
            "first": dict(zip(("q1", "median", "q3"), quartiles(a)), n=len(a)),
            "second": dict(zip(("q1", "median", "q3"), quartiles(b)), n=len(b)),
            "worse_by": worse_by, "verdict": verdict,
        })
    return rows


def render(rows: List[dict]) -> str:
    lines = [f"{'workload':14s} {'metric':12s} {'first':>12s} {'second':>12s} "
             f"{'worse by':>9s} {'bound':>6s}  verdict"]
    for row in rows:
        if row["second"] is None:
            lines.append(f"{row['workload']:14s} {row['metric']:12s} "
                         f"{row['first']['median']:12.5g} {'-':>12s} {'-':>9s} "
                         f"{row['bound']:6.0%}  {row['verdict']}")
            continue
        lines.append(
            f"{row['workload']:14s} {row['metric']:12s} {row['first']['median']:12.5g} "
            f"{row['second']['median']:12.5g} {row['worse_by']:+9.1%} {row['bound']:6.0%}  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)
