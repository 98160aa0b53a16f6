"""C20 — incremental execution: delta fraction vs recompute cost.

The incremental identity is *warm rerun + new inputs*: a survey that has
already processed N pointings and receives a delta re-runs the flow
against the shared stage cache, recomputing only the never-seen shards
(observe + search per new pointing) while everything else replays.

This benchmark runs the Figure-1 pipeline cold at 10 pointings, then
reruns it from caches primed at 50%, 80%, and 90% completion.  The bar
from the paper's economics: at a ≤10% delta fraction the incremental
rerun must cost at least 5x less wall-clock than the cold batch — and at
every fraction the result must be byte-identical to the batch run.

The storage side of the same identity: on a shared on-disk store a window
writes what arrived, once — a night's raw spectra as its shard entry, and
stage entries that name it — so store bytes follow the arrivals, not the
union (the paper keeps the raw volume once, and products are a few
percent of it).
"""

import time

from repro.arecibo.pipeline import AreciboPipelineConfig, run_arecibo_pipeline
from repro.arecibo.sky import SkyModel
from repro.arecibo.telescope import ObservationConfig
from repro.cleo.pipeline import CleoPipelineConfig, run_cleo_incremental, run_cleo_pipeline
from repro.core.stagecache import StageCache
from repro.core.telemetry import strip_wall_clock

SEED = 20

N_POINTINGS = 10

#: (delta fraction, pointings already processed when the delta lands)
FRACTIONS = ((0.5, 5), (0.2, 8), (0.1, 9))

#: Pointings per night for the store-bytes table; the third night is cloudy.
NIGHTLY_ARRIVALS = (1, 1, 0, 1)


def config(n_pointings):
    return AreciboPipelineConfig(
        n_pointings=n_pointings,
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
    )


class TestC20IncrementalCost:
    def test_delta_fraction_sweep(self, tmp_path, report_rows):
        start = time.perf_counter()
        cold = run_arecibo_pipeline(
            tmp_path / "cold", config(N_POINTINGS), cache=StageCache()
        )
        t_cold = time.perf_counter() - start
        reference_log = strip_wall_clock(cold.flow_report.events)

        rows = [{
            "run": "cold batch", "delta": "100%", "new": N_POINTINGS,
            "wall_s": round(t_cold, 3), "speedup": 1.0,
            "shard_misses": "-",
        }]
        speedups = {}
        for fraction, primed in FRACTIONS:
            cache = StageCache()
            run_arecibo_pipeline(
                tmp_path / f"prime{primed:02d}", config(primed), cache=cache
            )
            hits_before = cache.shard_hits
            misses_before = cache.shard_misses
            start = time.perf_counter()
            incremental = run_arecibo_pipeline(
                tmp_path / f"inc{primed:02d}", config(N_POINTINGS), cache=cache
            )
            t_inc = time.perf_counter() - start
            new = N_POINTINGS - primed
            shard_hits = cache.shard_hits - hits_before
            shard_misses = cache.shard_misses - misses_before
            speedups[fraction] = t_cold / t_inc
            rows.append({
                "run": "incremental", "delta": f"{fraction:.0%}", "new": new,
                "wall_s": round(t_inc, 3),
                "speedup": round(t_cold / t_inc, 2),
                "shard_misses": shard_misses,
            })

            # Identical science and canonical accounting at every fraction.
            assert incremental.score == cold.score
            assert (
                strip_wall_clock(incremental.flow_report.events)
                == reference_log
            )
            # Only the dirty cone recomputed: observe + search per new
            # pointing; every already-seen pointing replays from cache.
            assert shard_misses == 2 * new
            assert shard_hits == 2 * primed

        report_rows("C20: incremental rerun cost vs delta fraction", rows)

        # The paper's bar: a <=10% delta costs at least 5x less than batch.
        assert speedups[0.1] >= 5.0, (
            f"expected >=5x at 10% delta, got {speedups[0.1]:.2f}x"
        )

    def test_store_bytes_per_window(self, tmp_path, report_rows):
        """Each window is the pipeline over the union so far against one
        ``StageCache.on_disk``; what it adds to the store is measured."""
        cache = StageCache.on_disk(tmp_path / "store")
        rows, seen, stored = [], 0, 0
        for index, arrived in enumerate(NIGHTLY_ARRIVALS):
            seen += arrived
            report = run_arecibo_pipeline(
                tmp_path / f"window{index:02d}", config(seen), cache=cache
            )
            raw = int(report.raw_size.bytes * arrived / seen)
            written = cache.disk_stats()["disk_bytes"] - stored
            stored += written
            rows.append({
                "window": index, "new": arrived, "seen": seen,
                "raw_arrived_B": raw, "store_written_B": written,
                "written_per_raw": round(written / raw, 3) if raw else "-",
            })
            # What arrived, once, plus the window's small stage entries.
            # (Stored by value, ``acquire`` would add the whole union again.)
            assert written <= 1.05 * raw
        assert cache.disk_write_skips == 0
        report_rows("C20: store bytes written per nightly window (arrivals 1, 1, 0, 1)", rows)

    def test_figure2_run_append(self, tmp_path, report_rows):
        """Figure 2's form of the identity: runs append to the open dataset,
        reconstruction recomputes the appended runs and nothing else."""
        cleo = CleoPipelineConfig(n_runs=3, seed=SEED)
        cold = run_cleo_pipeline(tmp_path / "cold", cleo)
        appended = run_cleo_incremental(tmp_path / "windows", cleo, arrivals=[1, 0, 2])
        final = appended.final
        assert strip_wall_clock(final.flow_report.events) == strip_wall_clock(
            cold.flow_report.events
        )
        assert final.analysis.histogram.fingerprint() == cold.analysis.histogram.fingerprint()
        assert [w.shard_misses for w in appended.windows] == [1, 0, 2]
        report_rows("C20: Figure-2 run-append windows (final window = cold batch)", [
            {"window": w.index, "new_runs": w.new_runs, "runs_seen": w.runs_seen,
             "stage_hits": w.stage_hits, "shard_hits": w.shard_hits,
             "shard_misses": w.shard_misses}
            for w in appended.windows
        ])
