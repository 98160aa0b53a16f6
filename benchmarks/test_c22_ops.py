"""C22 — operations console: cached rollups, reproducible reports, alerts.

The operations surface has to be cheap enough to hammer: every console
refresh, CLI ``status`` call, and alert sweep reads the same telemetry,
and the paper-scale answer is to serve them from a content-digested
projection instead of re-scanning JSONL.  This benchmark pins three
bars over a real pipeline log fattened with synthetic serving traffic:

* **≥5x** — concurrent readers served from the cached rollup beat the
  same readers doing raw JSONL scans by at least 5x aggregate
  wall-clock;
* **byte-identical reports** — two nightly-report renders over the same
  log produce identical bytes (the HTML lands in ``BENCH_JSON_DIR`` as
  the CI artifact);
* **identical alert streams** — two evaluator runs over the same
  projection sequence emit the same canonical event list.
"""

import json
import os
import threading
import time
from pathlib import Path

from repro.arecibo.pipeline import AreciboPipelineConfig, run_arecibo_pipeline
from repro.arecibo.sky import SkyModel
from repro.arecibo.telescope import ObservationConfig
from repro.core.cachestore import DiskCacheStore
from repro.core.telemetry import Telemetry, strip_wall_clock
from repro.ops import default_quality_specs
from repro.ops.alerts import AlertEvaluator, default_alert_rules
from repro.ops.dashboard import build_dashboard
from repro.ops.report import render_report
from repro.ops.rollup import build_rollup, scan_log

SEED = 22

N_SERVING_REQUESTS = 4000
N_READS = 16
N_THREADS = 8
SPEEDUP_BAR = 5.0


def pipeline_config():
    return AreciboPipelineConfig(
        n_pointings=3,
        observation=ObservationConfig(n_channels=64, n_samples=4096),
        sky=SkyModel(seed=SEED, pulsar_fraction=0.5, binary_fraction=0.0,
                     transient_rate=0.5, period_range_s=(0.03, 0.12),
                     snr_range=(15.0, 30.0)),
        seed=SEED,
    )


def build_log(tmp_path):
    """A real pipeline log plus a day of synthetic serving traffic."""
    run_arecibo_pipeline(tmp_path / "run", pipeline_config())
    log = tmp_path / "run" / "telemetry.jsonl"
    bus = Telemetry()
    with bus.span("weblab-serving"):
        for index in range(N_SERVING_REQUESTS):
            bus.clock.advance(86400.0 / N_SERVING_REQUESTS)
            bus.emit("workload.request", f"r{index}", tenant="alpha")
            kind = "readcache.hit" if index % 10 else "readcache.miss"
            bus.emit(kind, f"r{index}")
    with open(log, "a", encoding="utf-8") as handle:
        for event in bus.events():
            handle.write(json.dumps(event.canonical(), sort_keys=True) + "\n")
    return log


def timed_reads(read_once):
    """Aggregate wall-clock for N_READS spread over N_THREADS threads."""
    counter = iter(range(N_READS))
    lock = threading.Lock()

    def worker():
        while True:
            with lock:
                if next(counter, None) is None:
                    return
            read_once()

    threads = [threading.Thread(target=worker) for _ in range(N_THREADS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


class TestC22OpsConsole:
    def test_cached_rollup_vs_raw_scans(self, tmp_path, report_rows):
        log = build_log(tmp_path)
        n_lines = sum(1 for _ in open(log, encoding="utf-8"))

        t_raw = timed_reads(lambda: scan_log(log))

        store = DiskCacheStore(tmp_path / "cache")
        primed = build_rollup(log, store=store)  # one cold build
        t_cached = timed_reads(lambda: build_rollup(log, store=store))
        speedup = t_raw / t_cached if t_cached else float("inf")

        cached = build_rollup(log, store=store)
        assert cached.source == "cache"
        assert cached.metrics_by_flow() == primed.metrics_by_flow()

        report_rows("C22: cached rollup vs raw JSONL scans", [
            {"path": "raw scan", "reads": N_READS, "log_lines": n_lines,
             "wall_s": round(t_raw, 4), "speedup": 1.0},
            {"path": "cached rollup", "reads": N_READS, "log_lines": n_lines,
             "wall_s": round(t_cached, 4), "speedup": round(speedup, 1)},
        ])
        assert speedup >= SPEEDUP_BAR, (
            f"cached rollup served {speedup:.1f}x faster than raw scans; "
            f"bar is {SPEEDUP_BAR}x"
        )

    def test_report_and_alert_streams_are_reproducible(self, tmp_path,
                                                       report_rows):
        log = build_log(tmp_path)
        specs = default_quality_specs()

        def night():
            projection = scan_log(log)
            bus = Telemetry()
            evaluator = AlertEvaluator(default_alert_rules(), specs,
                                       telemetry=bus)
            evaluator.evaluate(projection)
            dashboard = build_dashboard(projection, specs)
            page = render_report(dashboard, title="C22 nightly report",
                                 alerts=evaluator.active())
            return page, strip_wall_clock(bus.events()), dashboard

        first_page, first_alerts, dashboard = night()
        second_page, second_alerts, _ = night()

        out_dir = Path(os.environ.get("BENCH_JSON_DIR", "benchmarks/results"))
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "ops_report.html").write_text(first_page, encoding="utf-8")

        report_rows("C22: determinism", [
            {"artifact": "nightly HTML report", "size": len(first_page),
             "unit": "bytes", "identical": first_page == second_page},
            {"artifact": "alert event stream", "size": len(first_alerts),
             "unit": "events", "identical": first_alerts == second_alerts},
        ])
        assert first_page == second_page
        assert first_alerts == second_alerts
        assert {panel.channel for panel in dashboard.panels} == {
            "arecibo", "cleo", "weblab",
        }
