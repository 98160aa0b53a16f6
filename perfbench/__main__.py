"""Run every workload, each in its own fresh process, and keep the results.

    python -m perfbench [--seed N] [--workload NAME ...] [--label L]
                        [--repeat K] [--trace]
    python -m perfbench --compare A.json B.json [--out LEDGER.json]

The parent only launches ``perfbench/run.py`` and collects its JSON; the
load comes from that single child (plus the two farm workers of
``fig1-farm``).  Results land in ``perfbench/results/<label>.json``; with
``--trace`` each workload is run once more under the boundary tracer, its
spans written to ``perfbench/results/trace_<workload>.json`` and its
attribution table printed.  No gain is ever claimed here: the summary ends
with ``"claim": null``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from perfbench import compare, manifest

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"


def run_once(workload: str, seed: int, trace: bool, spans: Path = None) -> dict:
    """One child process of the declared run length; returns its detail record."""
    with tempfile.TemporaryDirectory(dir=RESULTS) as scratch:
        detail = Path(scratch) / "detail.json"
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(manifest.RUN_SECONDS),
            "--trace", str(int(trace)),
            "--detail", str(detail),
        ]
        if spans is not None:
            command += ["--spans", str(spans)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if not detail.exists():
            raise SystemExit(f"perfbench: {workload} produced no result "
                             f"(exit {done.returncode})")
        record = json.loads(detail.read_text(encoding="utf-8"))
    record["exit_code"] = done.returncode
    return record


def print_metrics(records: list) -> None:
    by_workload: dict = {}
    for record in records:
        by_workload.setdefault(record["workload"], []).append(record["result"]["metrics"])
    for workload, runs in by_workload.items():
        for name, entry in runs[0].items():
            mid = statistics.median(run[name]["value"] for run in runs)
            print(f"{workload:14s} {name:34s} {mid:12.6g} {entry['unit']}  (median of {len(runs)})")


def print_attribution(record: dict) -> None:
    metrics = record["result"]["metrics"]
    print(f"\n{record['workload']}: self seconds per traced pass, share of traced wall")
    for layer, row in record["attribution"].items():
        if row["self_s"] > 0:
            print(f"  {layer:12s} {row['self_s']:10.4f} s {row['share_of_wall']:7.1%}")
    for name in ("perfbench.unattributed_share", "perfbench.trace_overhead"):
        print(f"  {name:34s} {metrics[name]['value']:.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    names = [name for name, _ in manifest.WORKLOADS]
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--label", default="latest")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    parser.add_argument("--out", type=Path, help="with --compare: write both sets, "
                        "their traced tables and the rows to this ledger file")
    args = parser.parse_args(argv)

    if args.compare:
        first, second = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        rows = compare.compare(first, second)
        print(compare.render(rows))
        if args.out:
            args.out.write_text(json.dumps(
                {"sets": [first, second], "comparison": rows, "claim": None}, indent=1
            ) + "\n", encoding="utf-8")
        return 1 if any(row["verdict"] in ("regressed", "missing") for row in rows) else 0

    RESULTS.mkdir(exist_ok=True)
    workloads = args.workload or names
    runs = [
        run_once(workload, args.seed, trace=False)
        for _ in range(args.repeat) for workload in workloads
    ]
    print_metrics(runs)
    traced = []
    if args.trace:
        for workload in workloads:
            traced.append(run_once(workload, args.seed, trace=True,
                                   spans=RESULTS / f"trace_{workload}.json"))
            print_attribution(traced[-1])
    failed = sum(r["result"]["failed"] for r in runs + traced)
    attempted = sum(r["result"]["attempted"] for r in runs + traced)
    summary = {
        "label": args.label, "seed": args.seed, "repeat": args.repeat,
        "fingerprint": runs[0]["fingerprint"],
        "failed_share": failed / attempted,
        "runs": runs, "traced": traced, "claim": None,
    }
    target = RESULTS / f"{args.label}.json"
    target.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {target.relative_to(HERE.parent)}")
    print(json.dumps({"failed_share": summary["failed_share"], "claim": None}))
    return 0 if failed == 0 and all(r["exit_code"] == 0 for r in runs + traced) else 1


if __name__ == "__main__":
    sys.exit(main())
