"""Phases of one run: set-up, timed passes, output checks, result.

Untraced run (``--trace 0``): set-up :data:`SETUP_REPEATS` times (median
reported), then timed passes for ``--seconds``, then the output checks.
Traced run (``--trace 1``): one set-up and untraced *reference* passes for
:data:`REFERENCE_SHARE` of the time (they give the tracing overhead and
every number that must not carry it), then a traced set-up and traced
passes.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import sqlite3
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy

from perfbench import manifest
from perfbench.boundaries import BOUNDARIES, LAYERS
from perfbench.probe import REFERENCE, SpeedMeter, speed_factor
from perfbench.trace import Tracer
from perfbench.workloads import WORKLOADS, Check, PassResult, RunContext, Workload, median

SETUP_REPEATS = 3
MIN_PASSES = 3
REFERENCE_SHARE = 0.3

WORK_ROOT = Path(__file__).resolve().parent / ".work"


def fingerprint() -> Dict[str, object]:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
    }


def peak_rss_mb() -> float:
    """High-water RSS of this process or of its largest child (the farm workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


@contextlib.contextmanager
def settled_heap() -> Iterator[None]:
    """Collect, then keep what is alive now out of the collector's way.

    The collector stays on: what the timed code allocates is collected at
    the program's own thresholds and that cost is measured.  But a full
    collection also walks everything that was alive before — the lab, the
    text index, the benchmark's own trace — at 25-50 ms a time, and whether
    a pass meets one or two of those depends on counters left by the pass
    before it.  On ``serve-hot`` that alone was 0.05 or 0.12 s of a 0.5 s
    pass, by seed.  Freezing the old heap for the length of the timed code
    takes the lottery out.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()
        gc.collect()


def timed_passes(
    workload: Workload, seconds: float, minimum: int, meter: SpeedMeter,
    tracer: Optional[Tracer] = None,
) -> List[PassResult]:
    """Run passes until ``seconds`` are used; another starts only if half of it fits.

    A probe sits between every two passes, so each pass knows the speed
    factor it ran at (:mod:`perfbench.probe`).
    """
    passes: List[PassResult] = []
    begin = time.perf_counter()
    before = meter.sample(workload.bound_by)
    while True:
        elapsed = time.perf_counter() - begin
        typical = median([p.wall_s for p in passes])
        if len(passes) >= minimum and elapsed + typical / 2.0 > seconds:
            return passes
        if tracer is not None:
            tracer.phase = len(passes)
        with settled_heap():
            start = time.perf_counter()
            try:
                result = workload.run_pass(len(passes))
            except Exception:  # noqa: BLE001 - a crashed pass is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                units = workload.units_per_pass()
                result = PassResult(wall_s=time.perf_counter() - start, units=units, failed=units)
        after = meter.sample(workload.bound_by)  # never traced: the tracer wraps repro.* only
        result.speed = speed_factor(before, after, workload.bound_by)
        before = after
        passes.append(result)


def end_to_end(passes: List[PassResult], setups: List[float], import_s: float) -> Dict[str, float]:
    """``setups`` and ``import_s`` are already at reference speed."""
    return {
        "wall_s": median([p.reference_wall_s for p in passes]),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": import_s + median(setups),
    }


def per_layer(
    tracer: Tracer, ctx: RunContext, extras: Dict[str, float]
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """Every declared per-layer metric, and the attribution table behind them."""
    passes = max(len(ctx.traced), 1)
    totals, setup_totals = tracer.totals(), tracer.totals(setup=True)

    def spans_of(argument: str) -> List[str]:
        if argument.startswith("layer:"):
            return [name for name, layer in tracer.layer_of.items()
                    if layer == argument[len("layer:"):]]
        return [argument]

    values: Dict[str, float] = {}
    layer_self = tracer.layer_self_seconds()
    for name, _unit, _better, kind, argument in manifest.PER_LAYER:
        value = 0.0
        if kind == "layer":
            value = layer_self.get(argument, 0.0) / passes
        elif kind == "setup":
            found = setup_totals.get(argument)
            value = found.inclusive if found else 0.0
        elif kind != "extra":
            found = [totals[span] for span in spans_of(argument) if span in totals]
            calls = sum(t.calls for t in found)
            if kind == "total":
                value = sum(t.inclusive for t in found) / passes
            elif kind == "self":
                value = sum(t.self_time for t in found) / passes
            elif kind == "calls":
                value = calls / passes
            elif kind == "work":
                value = sum(t.work for t in found) / passes
            elif kind == "us" and calls:
                value = sum(t.inclusive for t in found) / calls * 1e6
            elif kind == "self_us" and calls:
                value = sum(t.self_time for t in found) / calls * 1e6
        values[name] = value
    traced_wall = sum(p.wall_s for p in ctx.traced)
    if ctx.traced:
        per_unit = median([p.wall_s / p.units for p in ctx.traced])
        values["perfbench.trace_overhead"] = per_unit / median(
            [p.wall_s / p.units for p in ctx.reference]
        )
        values["perfbench.unattributed_share"] = max(
            0.0, 1.0 - tracer.root_seconds() / traced_wall
        )
    # The end-to-end times are reported at reference speed; these two say what
    # was measured and how fast the box was running while it was.
    values["perfbench.raw_wall_s"] = median([p.wall_s for p in ctx.reference])
    values["perfbench.speed_factor"] = median([p.speed for p in ctx.reference + ctx.traced])
    values.update(extras)  # a workload's own measurement wins over the span rule
    table = {
        layer: {
            "self_s": layer_self.get(layer, 0.0) / passes,
            "share_of_wall": layer_self.get(layer, 0.0) / traced_wall if traced_wall else 0.0,
        }
        for layer in LAYERS
    }
    return values, table


def run(
    name: str, seed: int, seconds: float, trace: bool, import_s: float,
    meter: Optional[SpeedMeter] = None,
    detail_path: Optional[Path] = None, spans_path: Optional[Path] = None,
) -> Dict[str, object]:
    """One run of one workload; returns the contract's result object.

    ``import_s`` is the import of the program at reference speed, ``meter``
    the probe series the caller started around it.
    """
    meter = meter or SpeedMeter()
    workdir = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](seed, workdir)
    tracer = Tracer(BOUNDARIES) if trace else None
    setups: List[float] = []  # at reference speed
    raw_setups: List[float] = []
    traced: List[PassResult] = []
    try:
        before = meter.sample(workload.bound_by)
        for _ in range(1 if trace else SETUP_REPEATS):
            with settled_heap():
                start = time.perf_counter()
                workload.setup()
                raw_setups.append(time.perf_counter() - start)
            after = meter.sample(workload.bound_by)
            setups.append(raw_setups[-1] / speed_factor(before, after, workload.bound_by))
            before = after
        if tracer is None:
            reference = timed_passes(workload, seconds, MIN_PASSES, meter)
        else:
            # Reference passes first, before a single span exists: they are
            # what an untraced run measures.  Then set up again under trace.
            reference = timed_passes(workload, seconds * REFERENCE_SHARE, 2, meter)
            with tracer:
                workload.setup()
                traced = timed_passes(
                    workload, seconds * (1.0 - REFERENCE_SHARE), 2, meter, tracer
                )
        ctx = RunContext(reference, traced, tracer)
        checks: List[Check] = workload.check(ctx)
        extras = workload.extras(ctx) if trace else {}
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    passes = reference + traced
    checks = [check for result in passes for check in result.checks] + checks
    failed_checks = [check for check in checks if not check.ok]
    for check in failed_checks:
        print(f"CHECK FAILED: {check.name} ({check.detail})", file=sys.stderr)
    attempted = sum(p.units for p in passes) + len(checks)
    failed = sum(p.failed for p in passes) + len(failed_checks)

    table: Dict[str, Dict[str, float]] = {}
    if tracer is None:
        values = end_to_end(reference, setups, import_s)
        declared = [(n, u) for n, u, _, _ in manifest.END_TO_END]
    else:
        values, table = per_layer(tracer, ctx, extras)
        declared = [(n, u) for n, u, _, _, _ in manifest.PER_LAYER]
    metrics = {n: {"value": values[n], "unit": unit} for n, unit in declared}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if detail_path is not None:
        detail = {
            "workload": name, "unit": workload.unit, "seed": seed, "seconds": seconds,
            "trace": trace, "fingerprint": fingerprint(), "result": result,
            "setups_s": setups, "raw_setups_s": raw_setups, "import_s": import_s,
            "passes": [
                {"traced": index >= len(reference), "wall_s": p.reference_wall_s,
                 "raw_wall_s": p.wall_s, "speed": p.speed, "units": p.units,
                 "failed": p.failed, "parts": p.parts}
                for index, p in enumerate(passes)
            ],
            "probe": {"bound_by": workload.bound_by, "reference": REFERENCE,
                      "readings": meter.readings},
            "checks": {
                "run": len(checks),
                "names": sorted({c.name for c in checks}),
                "failed": [{"name": c.name, "detail": c.detail} for c in failed_checks],
            },
            "attribution": table,
            "spans_dropped": tracer.dropped if tracer else 0,
        }
        detail_path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if spans_path is not None and tracer is not None:
        spans_path.write_text(
            json.dumps({
                "workload": name,
                "fields": ["id", "parent", "root", "name", "layer", "start", "end", "pass"],
                "spans": [
                    [sid, parent, root, span, tracer.layer_of[span], start, end, phase]
                    for sid, parent, root, span, start, end, phase in tracer.spans
                ],
            }) + "\n",
            encoding="utf-8",
        )
    return result
