"""One run of one workload, to the benchmark contract.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints every metric by name with its unit, then — as the last line of
standard output — one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits 0 when every operation and output check
passed, 1 when one failed (the result line is still printed), 2 when the
program under test is not there to run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The script directory holds trace.py, which must not shadow the stdlib's.
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    from perfbench.probe import SpeedMeter, speed_factor

    meter = SpeedMeter()
    before = meter.sample("interpreter")
    import_start = time.perf_counter()
    from perfbench import harness

    import_s = time.perf_counter() - import_start
    import_s /= speed_factor(before, meter.sample("interpreter"), "interpreter")

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=harness.manifest.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", type=Path, help="also write passes, checks and the "
                        "attribution table to this JSON file")
    parser.add_argument("--spans", type=Path, help="with --trace 1, write the raw spans here")
    args = parser.parse_args(argv)

    result = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), import_s, meter,
        detail_path=args.detail, spans_path=args.spans,
    )
    for name, metric in result["metrics"].items():
        print(f"{args.workload:14s} {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
