"""C20 — incremental execution: what a window stores and recomputes.

The incremental identity is *warm rerun + new inputs*: a survey that has
already processed N pointings and receives a delta re-runs the flow
against the shared stage cache, recomputing only the never-seen shards
(observe + search per new pointing) while everything else replays.  What
a window costs in seconds is perfbench's ``fig1-nightly`` workload
(``deltas.window_first_s``, ``window_last_s``, ``window_empty_s``,
``overhead_ratio``); the tables here are deterministic.

The storage side of the same identity: a window stages what arrived,
once — a night's raw spectra in its staging files, which later windows'
cache hits name instead of writing again — and its store entries hold
handles to those files and the search products, so staging follows the
arrivals, not the union, and the store holds no raw spectra at all (the
paper keeps the raw volume once, and products are a few percent of it).
"""

from repro.arecibo.pipeline import AreciboPipelineConfig, run_arecibo_pipeline
from repro.arecibo.sky import SkyModel
from repro.arecibo.telescope import ObservationConfig
from repro.cleo.pipeline import CleoPipelineConfig, run_cleo_incremental, run_cleo_pipeline
from repro.core.stagecache import StageCache
from repro.core.telemetry import strip_wall_clock

SEED = 20

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
            staged = sum(
                path.stat().st_size
                for path in (tmp_path / f"window{index:02d}" / "arecibo-staging").iterdir()
            )
            written = cache.disk_stats()["disk_bytes"] - stored
            stored += written
            rows.append({
                "window": index, "new": arrived, "seen": seen,
                "raw_arrived_B": raw, "staged_B": staged, "store_written_B": written,
                "written_per_raw": round(written / raw, 4) if raw else "-",
            })
            # What arrived is staged once; the store gets handles and products.
            # (Stored by value, the store would hold the arrived bytes again.)
            assert staged <= 1.05 * raw
            assert written <= 0.01 * raw
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
