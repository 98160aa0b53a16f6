"""The operations console over live pipeline telemetry (ROADMAP item 3).

Runs a small Arecibo pipeline, attributes synthetic serving traffic to
the ``weblab-serving`` channel, then works the whole console surface:

1. build a cached rollup projection over the persisted JSONL log
   (cold, then a content hit, then an incremental resume after the log
   grows);
2. grade the quality dashboard against the stock per-pipeline
   green/yellow/red specs;
3. evaluate the stock alert rules twice — a degraded night raises, a
   healthy re-read deduplicates — with exact accounting;
4. render the nightly HTML report twice and show it is byte-identical.

Run:  python examples/ops_console.py
"""

import json
import tempfile
from pathlib import Path

from repro.arecibo.pipeline import AreciboPipelineConfig, run_arecibo_pipeline
from repro.arecibo.sky import SkyModel
from repro.arecibo.telescope import ObservationConfig
from repro.core.cachestore import DiskCacheStore
from repro.core.telemetry import Telemetry
from repro.ops import default_quality_specs
from repro.ops.alerts import AlertEvaluator, default_alert_rules
from repro.ops.dashboard import build_dashboard
from repro.ops.report import render_report
from repro.ops.rollup import build_rollup


def run_pipeline(workdir):
    config = AreciboPipelineConfig(
        n_pointings=2,
        observation=ObservationConfig(n_channels=64, n_samples=4096),
        sky=SkyModel(seed=9, pulsar_fraction=0.5, binary_fraction=0.0,
                     transient_rate=0.5, period_range_s=(0.03, 0.12),
                     snr_range=(15.0, 30.0)),
        seed=9,
    )
    run_arecibo_pipeline(workdir, config)
    return workdir / "telemetry.jsonl"


def append_serving_traffic(log, n_requests=300):
    """A slice of serving-tier traffic, attributed to its channel."""
    bus = Telemetry()
    with bus.span("weblab-serving"):
        for index in range(n_requests):
            bus.clock.advance(1.0)
            bus.emit("workload.request", f"r{index}", tenant="alpha")
            kind = "readcache.hit" if index % 4 else "readcache.miss"
            bus.emit(kind, f"r{index}")
    with open(log, "a", encoding="utf-8") as handle:
        for event in bus.events():
            handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")


def main():
    with tempfile.TemporaryDirectory() as raw:
        workdir = Path(raw)
        log = run_pipeline(workdir / "run")
        store = DiskCacheStore(workdir / "cache")
        specs = default_quality_specs()

        print("== rollup projections ==")
        cold = build_rollup(log, store=store)
        print(f"cold build:   {cold.consumed_events} events, "
              f"{len(cold.flows)} flows ({cold.source})")
        hit = build_rollup(log, store=store)
        print(f"repeat read:  {hit.consumed_events} events ({hit.source})")
        append_serving_traffic(log)
        grown = build_rollup(log, store=store)
        print(f"after growth: {grown.consumed_events} events ({grown.source})")

        print("\n== quality dashboard ==")
        dashboard = build_dashboard(grown, specs)
        for panel in dashboard.panels:
            cells = ", ".join(
                f"{cell.metric}={cell.display} [{cell.status}]"
                for cell in panel.cells
            )
            print(f"{panel.channel:8s} {panel.status:8s} {cells}")
        print(f"overall: {dashboard.status}")

        print("\n== alerts ==")
        evaluator = AlertEvaluator(default_alert_rules(), specs)
        for transition in evaluator.evaluate(grown):
            alert = transition.alert
            print(f"{transition.action}: {alert.rule} [{alert.channel}] "
                  f"- {alert.detail}")
        evaluator.evaluate(grown)  # same state: dedup, no new events
        print(f"active={len(evaluator.active())} "
              f"raised={evaluator.metrics.value('ops.alerts.raised'):.0f} "
              f"deduped={evaluator.metrics.value('ops.alerts.deduped'):.0f}")

        print("\n== nightly report ==")
        first = render_report(dashboard, alerts=evaluator.active())
        second = render_report(dashboard, alerts=evaluator.active())
        out = workdir / "ops_report.html"
        out.write_text(first, encoding="utf-8")
        print(f"wrote {len(first)} bytes; "
              f"re-render byte-identical: {first == second}")


if __name__ == "__main__":
    main()
