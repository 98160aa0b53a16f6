"""C19 — sharded execution: the process farm and the shared stage store.

Two experiments on the Figure-1 flow:

* **Farm speedup** — the per-pointing search fanned out over worker
  processes (``executor="process"``) against the sequential reference.
  Identical science and canonical telemetry at every worker count; the
  ≥2x wall-clock bar applies only where the host actually has ≥4 cores
  (CI containers are often single-core, where the farm legitimately
  degrades to serial-with-overhead).
* **Shared store** — a cold run writes the stage cache through to an
  on-disk store; a *separate process* then reruns the unchanged flow
  against the same store root and must replay every stage (all-hit, zero
  misses) with byte-identical accounting — the paper's central-store warm
  start, crossed over a process boundary.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor

from repro.arecibo.pipeline import AreciboPipelineConfig, run_arecibo_pipeline
from repro.arecibo.sky import SkyModel
from repro.arecibo.telescope import ObservationConfig
from repro.core.stagecache import StageCache
from repro.core.telemetry import strip_wall_clock

SEED = 19

ARECIBO_STAGES = 6

#: The farm only helps with real cores behind it; the determinism claims
#: hold everywhere.
CORES = len(os.sched_getaffinity(0))


def config(workers=1, executor="thread"):
    return AreciboPipelineConfig(
        n_pointings=4,
        observation=ObservationConfig(n_channels=64, n_samples=4096),
        sky=SkyModel(
            seed=SEED,
            pulsar_fraction=0.5,
            binary_fraction=0.0,
            transient_rate=0.5,
            period_range_s=(0.03, 0.12),
            snr_range=(15.0, 30.0),
        ),
        seed=SEED,
        workers=workers,
        executor=executor,
    )


def timed_run(workdir, workers, executor, cache=None):
    start = time.perf_counter()
    report = run_arecibo_pipeline(
        workdir, config(workers=workers, executor=executor), cache=cache
    )
    return report, time.perf_counter() - start


def warm_rerun_in_child(workdir, store_root):
    """Child-process entry: rerun the unchanged flow over the shared store."""
    cache = StageCache.on_disk(store_root)
    report = run_arecibo_pipeline(workdir, config(), cache=cache)
    return {
        "hits": cache.hits,
        "misses": cache.stats()["misses"],
        "disk_hits": cache.disk_hits,
        "events": strip_wall_clock(report.flow_report.events),
        "rows": report.flow_report.summary_rows(),
        "score": report.score,
    }


class TestC19ProcessFarm:
    def test_farm_speedup_and_determinism(self, tmp_path, report_rows):
        sequential, t_seq = timed_run(tmp_path / "w1", 1, "thread")
        rows = [{
            "executor": "serial", "workers": 1,
            "wall_s": round(t_seq, 3), "speedup": 1.0,
            "recall": round(sequential.score.recall, 4),
        }]
        reference_log = strip_wall_clock(sequential.flow_report.events)
        results = {}
        for workers in (2, 4):
            report, wall = timed_run(
                tmp_path / f"p{workers}", workers, "process"
            )
            results[workers] = (report, wall)
            rows.append({
                "executor": "process", "workers": workers,
                "wall_s": round(wall, 3),
                "speedup": round(t_seq / wall, 2),
                "recall": round(report.score.recall, 4),
            })
        report_rows("C19: per-pointing search farm (Figure 1)", rows)

        for report, _ in results.values():
            assert report.score == sequential.score
            assert (
                strip_wall_clock(report.flow_report.events) == reference_log
            )
        if CORES >= 4:
            _, wall4 = results[4]
            assert t_seq / wall4 >= 2.0, (
                f"expected >=2x at 4 workers on {CORES} cores, "
                f"got {t_seq / wall4:.2f}x"
            )

    def test_cross_process_warm_rerun_all_hit(self, tmp_path, report_rows):
        store_root = tmp_path / "store"
        cold_cache = StageCache.on_disk(store_root)
        cold, t_cold = timed_run(tmp_path / "cold", 1, "thread",
                                 cache=cold_cache)
        # One entry per stage, plus an observe and a search shard per pointing.
        assert cold_cache.disk_writes == ARECIBO_STAGES + 2 * config().n_pointings

        start = time.perf_counter()
        with ProcessPoolExecutor(max_workers=1) as pool:
            warm = pool.submit(
                warm_rerun_in_child, tmp_path / "warm", store_root
            ).result()
        t_warm = time.perf_counter() - start

        report_rows("C19: shared-store warm start across processes", [
            {"run": "cold", "process": "parent", "wall_s": round(t_cold, 3),
             "hits": cold_cache.hits, "disk_writes": cold_cache.disk_writes},
            {"run": "warm", "process": "child", "wall_s": round(t_warm, 3),
             "hits": warm["hits"], "disk_hits": warm["disk_hits"]},
        ])

        # Every stage replayed from the store: all-hit, nothing recomputed.
        assert warm["misses"] == 0
        assert warm["hits"] == ARECIBO_STAGES
        assert warm["disk_hits"] == ARECIBO_STAGES
        # And the replayed run is byte-identical to the cold one.
        assert warm["score"] == cold.score
        assert warm["rows"] == cold.flow_report.summary_rows()
        assert warm["events"] == strip_wall_clock(cold.flow_report.events)
