"""What the benchmark declares: workloads, metrics, bounds, derivation rules.

``BENCHMARK.json`` at the repo root is this module rendered
(``python3 perfbench/manifest.py`` rewrites it; a test keeps the two
equal).  It names the :data:`GATED` workloads only: the driver makes
4 + 22 x workloads runs inside 3420 s, which is 12 s of timed passes a run
for seven workloads and 20 s for five, and at 10 s four of the seven
``wall_s`` rows spread past their bound on the driver's box (README,
"Bounds").  ``fig1-farm`` and ``serve-hot`` are still run by
``python -m perfbench`` and kept in the ledger.  Every run prints *every* end-to-end metric (``--trace 0``) or
*every* per-layer metric (``--trace 1``); a layer a workload never enters
reads 0 there, which is itself the bypass prediction.

A per-layer rule is ``(kind, argument)``:

========== ==================================================================
``total``   inclusive seconds per traced pass of the named span
``self``    self seconds per traced pass of the named span
``us``      inclusive microseconds per call of the named span
``self_us`` self microseconds per call of the named span
``calls``   calls per traced pass of the named span (or ``layer:<name>``)
``work``    the span's boundary work count (bytes, events) per traced pass
``setup``   inclusive seconds of the named span during the traced set-up
``layer``   self seconds per traced pass summed over the layer's spans
``extra``   supplied by the workload: public stats read at the boundary, or
            a sub-phase timed from outside during the *untraced* passes
========== ==================================================================
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

WORKLOADS = (
    ("fig1-cold",
     "Figure 1 single-process, no cache: repro.arecibo + core.kernels do the work; "
     "the baseline every other Fig-1 number is read against"),
    ("fig1-farm",
     "same config on 2 worker processes: identical kernel work, so the difference "
     "from fig1-cold is core.shards (pool start, pickling, shared memory, event forwarding)"),
    ("fig1-nightly",
     "pointings arrive window by window on StageCache.on_disk, then a warm restart: "
     "cache writes beside reads, cost growing with the union while new compute is constant"),
    ("engine-lanes",
     "2001 trivial stages run serial, 2 threads, cold cache, warm cache: zero kernel work, "
     "so engine, provenance, telemetry emission and stage-cache replay are everything"),
    ("fig2-cold",
     "Figure 2: dominated by repro.eventstore file writes, repro.cleo generation and "
     "reconstruction and repro.db, layers Figure 1 barely touches"),
    ("serve-hot",
     "Zipf s=1.3 browse/navigate/history trace on a ReadCache larger than the working set "
     "(hit ratio >= 0.97): the read path the cache was built for"),
    ("serve-scan",
     "near-uniform crawler trace on a small ReadCache (hit ratio <= 0.15) with a telemetry "
     "bus attached: sqlite and the page store do the work, the cache is pure overhead"),
)

#: The workloads ``BENCHMARK.json`` declares, i.e. the ones the driver gates.
#: Not gated: ``fig1-farm`` (two worker processes beside the parent on a
#: 2-core box; its kernel work is ``fig1-cold``'s) and ``serve-hot`` (the
#: cache's hit path; ``serve-scan`` runs the same services on the same lab).
GATED = ("fig1-cold", "fig1-nightly", "engine-lanes", "fig2-cold", "serve-scan")

#: (name, unit, better, bound).  Bounds are shares of the parent's median;
#: see README "Bounds" for the spreads they were set from.  0.25 is the widest
#: the contract allows.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

#: (name, unit, better, rule kind, rule argument)
PER_LAYER = (
    ("arecibo.observe_s", "s", "lower", "total", "arecibo.observe"),
    ("arecibo.rfi_s", "s", "lower", "total", "arecibo.rfi"),
    ("arecibo.dedisperse_s", "s", "lower", "total", "arecibo.dedisperse"),
    ("arecibo.fourier_s", "s", "lower", "total", "arecibo.fourier"),
    ("arecibo.singlepulse_s", "s", "lower", "total", "arecibo.singlepulse"),
    ("arecibo.sift_fold_s", "s", "lower", "total", "arecibo.sift_fold"),
    ("arecibo.meta_s", "s", "lower", "total", "arecibo.meta"),
    ("arecibo.raw_mb_per_s", "MB/s", "higher", "extra", None),
    ("arecibo.recall", "ratio", "higher", "extra", None),
    ("kernels.shift_sum_s", "s", "lower", "total", "kernels.shift_sum"),
    ("kernels.shift_sum_computed_gbps", "GB/s", "higher", "extra", None),
    ("kernels.power_spectra_s", "s", "lower", "total", "kernels.power_spectra"),
    ("kernels.harmonic_snr_s", "s", "lower", "total", "kernels.harmonic_snr"),
    ("kernels.threshold_hits_s", "s", "lower", "total", "kernels.threshold_hits"),
    ("kernels.fold_block_s", "s", "lower", "total", "kernels.fold_block"),
    ("kernels.index_postings_s", "s", "lower", "setup", "kernels.index_postings"),
    ("kernels.calls", "count", "lower", "calls", "layer:kernels"),
    ("engine.run_self_s", "s", "lower", "self", "engine.run"),
    ("engine.stage_overhead_us", "us", "lower", "extra", None),
    ("engine.stages", "count", "lower", "extra", None),
    ("engine.threads_over_serial", "ratio", "lower", "extra", None),
    ("engine.warm_replay_us", "us", "lower", "extra", None),
    ("provenance.record_s", "s", "lower", "total", "provenance.record"),
    ("provenance.diamond16_ms", "ms", "lower", "extra", None),
    ("stagecache.key_s", "s", "lower", "total", "stagecache.key"),
    ("stagecache.lookup_s", "s", "lower", "total", "stagecache.lookup"),
    ("stagecache.store_s", "s", "lower", "total", "stagecache.store"),
    ("stagecache.hits", "count", "higher", "extra", None),
    ("stagecache.misses", "count", "lower", "extra", None),
    ("stagecache.shard_hits", "count", "higher", "extra", None),
    ("stagecache.shard_misses", "count", "lower", "extra", None),
    ("stagecache.hit_ratio", "ratio", "higher", "extra", None),
    ("stagecache.warm_restart_s", "s", "lower", "extra", None),
    ("cachestore.read_s", "s", "lower", "total", "cachestore.read"),
    ("cachestore.write_s", "s", "lower", "total", "cachestore.write"),
    ("cachestore.gc_s", "s", "lower", "total", "cachestore.gc"),
    ("cachestore.bytes_written", "B", "lower", "work", "cachestore.write"),
    ("cachestore.bytes_read", "B", "lower", "work", "cachestore.read"),
    ("cachestore.entries", "count", "lower", "extra", None),
    ("deltas.windows", "count", "lower", "extra", None),
    ("deltas.window_first_s", "s", "lower", "extra", None),
    ("deltas.window_last_s", "s", "lower", "extra", None),
    ("deltas.window_empty_s", "s", "lower", "extra", None),
    ("deltas.overhead_ratio", "ratio", "lower", "extra", None),
    ("shards.map_s", "s", "lower", "total", "shards.map"),
    ("shards.map_self_s", "s", "lower", "self", "shards.map"),
    ("shards.shared_copy_s", "s", "lower", "total", "shards.shared_copy"),
    ("shards.shared_bytes", "B", "lower", "work", "shards.shared_copy"),
    ("shards.forwarded_events", "count", "lower", "work", "shards.forward"),
    ("shards.farm_speedup", "ratio", "higher", "extra", None),
    ("shards.shm_leaked", "count", "lower", "extra", None),
    ("telemetry.emit_us", "us", "lower", "self_us", "telemetry.emit"),
    ("telemetry.events", "count", "lower", "calls", "telemetry.emit"),
    ("telemetry.write_log_s", "s", "lower", "total", "telemetry.write_log"),
    ("telemetry.read_log_s", "s", "lower", "total", "telemetry.read_log"),
    ("telemetry.log_bytes", "B", "lower", "extra", None),
    ("workload.generate_s", "s", "lower", "setup", "workload.generate"),
    ("workload.requests", "count", "higher", "extra", None),
    ("workload.replay_overhead_us", "us", "lower", "extra", None),
    ("serve.requests_per_s", "1/s", "higher", "extra", None),
    ("serve.latency_p50_us", "us", "lower", "extra", None),
    ("serve.latency_p99_us", "us", "lower", "extra", None),
    ("readcache.self_us", "us", "lower", "self_us", "readcache.get_or_load"),
    ("readcache.hit_ratio", "ratio", "higher", "extra", None),
    ("readcache.hits", "count", "higher", "extra", None),
    ("readcache.misses", "count", "lower", "extra", None),
    ("readcache.negative_hits", "count", "higher", "extra", None),
    ("readcache.evictions", "count", "lower", "extra", None),
    ("readcache.admission_rejects", "count", "lower", "extra", None),
    ("weblab.synth_s", "s", "lower", "setup", "weblab.synth"),
    ("weblab.pack_s", "s", "lower", "setup", "weblab.pack"),
    ("weblab.preload_s", "s", "lower", "setup", "weblab.preload"),
    ("weblab.pages_per_s", "1/s", "higher", "extra", None),
    ("weblab.browse_us", "us", "lower", "us", "weblab.browse"),
    ("weblab.navigate_us", "us", "lower", "us", "weblab.navigate"),
    ("weblab.history_us", "us", "lower", "us", "weblab.history"),
    ("weblab.pagestore_get_us", "us", "lower", "us", "weblab.pagestore_get"),
    ("db.query_s", "s", "lower", "total", "db.query"),
    ("db.queries", "count", "lower", "calls", "db.query"),
    ("db.execute_s", "s", "lower", "total", "db.execute"),
    ("db.statements", "count", "lower", "calls", "db.execute"),
    ("db.transactions", "count", "lower", "calls", "db.transaction"),
    ("eventstore.inject_s", "s", "lower", "total", "eventstore.inject"),
    ("eventstore.write_file_s", "s", "lower", "total", "eventstore.write_file"),
    ("eventstore.read_events_s", "s", "lower", "total", "eventstore.read_events"),
    ("eventstore.resolve_s", "s", "lower", "total", "eventstore.resolve"),
    ("eventstore.events_written", "count", "higher", "work", "eventstore.write_file"),
    ("eventstore.bytes_written", "B", "lower", "extra", None),
    ("cleo.generate_s", "s", "lower", "total", "cleo.generate"),
    ("cleo.reconstruct_s", "s", "lower", "total", "cleo.reconstruct"),
    ("cleo.postrecon_s", "s", "lower", "total", "cleo.postrecon"),
    ("cleo.analysis_s", "s", "lower", "total", "cleo.analysis"),
    ("cleo.events_per_s", "1/s", "higher", "extra", None),
    ("storage.self_s", "s", "lower", "layer", "storage"),
    ("storage.calls", "count", "lower", "calls", "layer:storage"),
    ("transport.self_s", "s", "lower", "layer", "transport"),
    ("transport.calls", "count", "lower", "calls", "layer:transport"),
    ("ops.scan_s", "s", "lower", "extra", None),
    ("ops.rollup_cold_s", "s", "lower", "extra", None),
    ("ops.rollup_incremental_s", "s", "lower", "extra", None),
    ("ops.rollup_warm_s", "s", "lower", "extra", None),
    ("ops.dashboard_s", "s", "lower", "extra", None),
    ("ops.report_s", "s", "lower", "extra", None),
    ("ops.report_total_s", "s", "lower", "extra", None),
    ("ops.events_per_s", "1/s", "higher", "extra", None),
    ("perfbench.trace_overhead", "ratio", "lower", "extra", None),
    ("perfbench.unattributed_share", "ratio", "lower", "extra", None),
    ("perfbench.raw_wall_s", "s", "lower", "extra", None),
    ("perfbench.speed_factor", "ratio", "lower", "extra", None),
)


def build() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS if name in GATED],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _, _ in PER_LAYER
        ],
    }


def render() -> str:
    return json.dumps(build(), indent=2) + "\n"


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    target.write_text(render(), encoding="utf-8")
