"""C16 — the engine's per-stage cost does not grow with the flow.

ARCHITECTURE's cost contract: scheduling, provenance and telemetry pay a
constant per stage, so a whole-graph scan or copy per stage is a bug.  The
perfbench ``engine-lanes`` workload runs one flow size and reports
``engine.stage_overhead_us``; this benchmark runs two sizes in one process
and checks their ratio, which a fixed-size workload cannot tell from a
slower constant.  Kernel cost and the warm stage-cache rerun are read from
perfbench (``kernels.*_s`` on ``fig1-cold``, ``stagecache.*`` on
``engine-lanes`` and ``fig1-nightly``).
"""

import gc
import time

from repro.core.engine import Engine

from perfbench.workloads import lanes_flow

# The perfbench engine-lanes shape (chains of 5 trivial stages into one
# join) at a sixteenfold spread of sizes around its fixed 400 lanes.
LANE_COUNTS = (100, 1600)
LANE_DEPTH = 5


def best_of(fn, reps=3):
    """(best wall seconds, last result) over ``reps`` calls, each on a
    settled heap: no collection owed to the call before lands in this one."""
    best = float("inf")
    result = None
    for _ in range(reps):
        gc.collect()
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_c16_engine_stage_cost_is_flat_in_flow_size(report_rows):
    rows = []
    per_stage_us = []
    for lanes in LANE_COUNTS:
        flow = lanes_flow(lanes, LANE_DEPTH, seed=16)
        stages = len(flow.stages)
        Engine(seed=16).run(flow)
        best, report = best_of(lambda: Engine(seed=16).run(flow))
        assert len(report.stages) == stages
        per_stage_us.append(best / stages * 1e6)
        rows.append(
            {
                "flow": f"{lanes} lanes x {LANE_DEPTH} + join",
                "stages": stages,
                "events": len(report.events),
                "serial run": f"{best * 1e3:.1f} ms",
                "per stage": f"{per_stage_us[-1]:.0f} us",
            }
        )
    for row, cost in zip(rows, per_stage_us):
        row["vs smallest"] = f"{cost / per_stage_us[0]:.2f}x"
    report_rows("C16: engine per-stage cost vs flow size", rows)
    assert per_stage_us[-1] / per_stage_us[0] <= 2.0
