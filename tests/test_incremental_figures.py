"""Incremental reruns of the figure pipelines: windowed arrival equals batch.

Contract under test, per flow: running the pipeline window-by-window as
inputs arrive (pointings for Figure 1, runs for Figure 2) against one
shared stage cache ends byte-identical — canonical telemetry, scores,
sizes — to a single cold batch run over the union.  The stage/shard
cache counters pin the cost side: each window recomputes only the
never-seen shards, and a zero-arrival window recomputes nothing at all.
On a shared on-disk store the same holds whatever happens to the store:
a window writes what arrived once, and any one lost or torn file costs a
recompute, never the result.
"""

import sqlite3
from dataclasses import replace

import numpy as np
import pytest

from repro.arecibo.pipeline import (
    AreciboPipelineConfig,
    run_arecibo_incremental,
    run_arecibo_pipeline,
)
from repro.arecibo.sky import SkyModel
from repro.arecibo.telescope import ObservationConfig
from repro.cleo.pipeline import (
    CleoPipelineConfig,
    run_cleo_incremental,
    run_cleo_pipeline,
)
from repro.core.errors import IncrementalError
from repro.core.stagecache import CachedShard, StageCache
from repro.core.telemetry import strip_wall_clock

ARECIBO_STAGES = 6
CLEO_STAGES = 5


def arecibo_config(n_pointings=3):
    return AreciboPipelineConfig(
        n_pointings=n_pointings,
        observation=ObservationConfig(n_channels=32, n_samples=2048),
        sky=SkyModel(seed=3, pulsar_fraction=0.5, transient_rate=0.5),
        seed=11,
    )


class TestAreciboIncremental:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("fig1-inc")
        incremental = run_arecibo_incremental(
            workdir / "windows", arecibo_config(), arrivals=[1, 1, 0, 1]
        )
        cold = run_arecibo_pipeline(
            workdir / "batch", arecibo_config(), cache=StageCache()
        )
        return incremental, cold

    def test_final_window_equals_cold_batch(self, run):
        incremental, cold = run
        final = incremental.final
        assert final.score == cold.score
        assert final.confirmed == cold.confirmed
        # Shipment ids come from a process-global counter, so compare the
        # physical outcome, not the label.
        assert final.shipment.volume == cold.shipment.volume
        assert final.shipment.media_used == cold.shipment.media_used
        assert final.shipment.attempts == cold.shipment.attempts
        assert final.shipment.elapsed == cold.shipment.elapsed
        assert final.shipment.cost == cold.shipment.cost
        assert final.raw_size == cold.raw_size
        assert final.flow_report.summary_rows() == cold.flow_report.summary_rows()
        assert strip_wall_clock(final.flow_report.events) == strip_wall_clock(
            cold.flow_report.events
        )

    def test_windows_recompute_only_new_pointings(self, run):
        incremental, _ = run
        for window in incremental.windows:
            if window.new_pointings == 0:
                continue
            # acquire + process each recompute one shard per new pointing;
            # everything already seen is a shard hit.
            assert window.shard_misses == 2 * window.new_pointings
            assert window.shard_hits == 2 * (
                window.pointings_seen - window.new_pointings
            )

    def test_empty_window_is_all_hit(self, run):
        incremental, _ = run
        empty = incremental.windows[2]
        assert empty.new_pointings == 0
        assert empty.stage_hits == ARECIBO_STAGES
        assert empty.stage_misses == 0
        assert empty.shard_hits == 0 and empty.shard_misses == 0

    def test_every_window_is_accounted(self, run):
        incremental, _ = run
        assert incremental.ledger.windows == [
            (0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0),
        ]
        kinds = [
            event.kind
            for event in incremental.telemetry.events()
            if event.kind.startswith("window.")
        ]
        assert kinds == ["window.open", "window.close"] * 4

    def test_arrivals_must_cover_the_survey(self, tmp_path):
        with pytest.raises(IncrementalError, match="sum to"):
            run_arecibo_incremental(tmp_path, arecibo_config(), arrivals=[1, 1])
        with pytest.raises(IncrementalError, match="negative"):
            run_arecibo_incremental(
                tmp_path, arecibo_config(), arrivals=[4, -1]
            )

    def test_leading_empty_window_is_rejected_by_name(self, tmp_path):
        """Nothing to run over yet: refused up front, not a crash in `ship`."""
        with pytest.raises(IncrementalError, match="window 0 is empty"):
            run_arecibo_incremental(
                tmp_path, arecibo_config(n_pointings=1), arrivals=[0, 1]
            )
        assert list(tmp_path.iterdir()) == []

    def test_fractional_arrivals_are_not_truncated(self, tmp_path):
        with pytest.raises(IncrementalError, match="non-integral"):
            run_arecibo_incremental(
                tmp_path, arecibo_config(n_pointings=2), arrivals=[1.5, 1.5]
            )


def nightly_config(**changes):
    """Three pointings at the smallest observation the suite searches."""
    return replace(
        arecibo_config(),
        observation=ObservationConfig(n_channels=32, n_samples=512),
        **changes,
    )


def persisted_candidates(workdir):
    """Every row of ``candidates.db``, the cull's verdict included."""
    database = sqlite3.connect(workdir / "candidates.db")
    try:
        tables = [
            name
            for (name,) in database.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
            )
        ]
        rows = {}
        for table in tables:
            rows[table] = database.execute(
                f"SELECT * FROM {table} ORDER BY 1"
            ).fetchall()
        return rows
    finally:
        database.close()


def store_files(root):
    return sorted(root.glob("*/*.pkl"))


def load_store(root):
    """key -> the value every entry under ``root`` loads to, names resolved."""
    cache = StageCache.on_disk(root)
    return {
        path.stem: cache.lookup_shard(path.stem) or cache.lookup(path.stem)
        for path in store_files(root)
    }


def same_value(left, right):
    """Structural equality that looks into arrays (a Filterbank's ``==``
    cannot) and past the shipment record, labelled from a process-global
    counter (its physical outcome is pinned in ``TestAreciboIncremental``)."""
    if type(left) is not type(right):
        return False
    if isinstance(left, np.ndarray):
        return left.dtype == right.dtype and np.array_equal(left, right)
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(
            key == "shipment" or same_value(left[key], right[key]) for key in left
        )
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(map(same_value, left, right))
    if hasattr(left, "__dict__"):
        return same_value(vars(left), vars(right))
    return left == right


class TestAreciboNightlyStore:
    ARRIVALS = [1, 1, 1]

    @pytest.fixture(scope="class")
    def night(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("fig1-nightly")
        cold = run_arecibo_pipeline(
            workdir / "batch", nightly_config(),
            cache=StageCache.on_disk(workdir / "batch-store"),
        )
        run_arecibo_incremental(
            workdir / "windows", nightly_config(), arrivals=self.ARRIVALS,
            cache=StageCache.on_disk(workdir / "store"),
        )
        return workdir, cold

    def assert_equals_batch(self, report, workdir, night):
        batch_dir, cold = night
        assert strip_wall_clock(report.flow_report.events) == strip_wall_clock(
            cold.flow_report.events
        )
        assert persisted_candidates(workdir) == persisted_candidates(
            batch_dir / "batch"
        )

    def test_a_window_writes_what_arrived_once(self, night):
        """Raw spectra are the volume and are kept once: the stage that
        gathers the pointings names their shard entries.  (Stored by value,
        W windows hold 1 + 2 + ... + W copies: about 3 x at W = 3.)"""
        root = night[0] / "store"
        entries = load_store(root)
        assert len(entries) == ARECIBO_STAGES * len(self.ARRIVALS) + 2 * sum(self.ARRIVALS)
        # The cold batch: one entry per stage, an observe and a search shard per pointing.
        assert len(store_files(night[0] / "batch-store")) == ARECIBO_STAGES + 2 * sum(self.ARRIVALS)
        assert all(entry is not None for entry in entries.values())
        total = sum(path.stat().st_size for path in store_files(root))
        shards = sum(
            path.stat().st_size
            for path in store_files(root)
            if isinstance(entries[path.stem], CachedShard)
        )
        assert total < 1.2 * shards

    def test_restart_survives_any_one_lost_or_torn_file(self, night):
        workdir, _ = night
        files = store_files(workdir / "store")
        for index, path in enumerate(files):
            whole = path.read_bytes()
            for damage in ("lost", "torn"):
                if damage == "lost":
                    path.unlink()
                else:
                    path.write_bytes(whole[: len(whole) // 2])
                run_dir = workdir / f"restart-{index}-{damage}"
                report = run_arecibo_pipeline(
                    run_dir, nightly_config(),
                    cache=StageCache.on_disk(workdir / "store"),
                )
                self.assert_equals_batch(report, run_dir, night)
                path.write_bytes(whole)  # the next case starts from a whole store

    def test_a_store_too_small_for_one_pointing_still_ends_on_the_batch(self, night):
        workdir, _ = night
        one_shard = max(path.stat().st_size for path in store_files(workdir / "store"))
        bounded = StageCache.on_disk(workdir / "small-store", max_bytes=one_shard - 1)
        nightly = run_arecibo_incremental(
            workdir / "small-windows", nightly_config(), arrivals=self.ARRIVALS,
            cache=bounded,
        )
        assert bounded.disk.stats()["bytes"] < one_shard
        final_dir = workdir / "small-windows" / f"window{len(self.ARRIVALS) - 1:02d}"
        self.assert_equals_batch(nightly.final, final_dir, night)

    def test_thread_and_process_farms_write_equal_stores(self, night):
        workdir, _ = night
        stores = {}
        for executor in ("thread", "process"):
            root = workdir / f"{executor}-store"
            run_arecibo_incremental(
                workdir / f"{executor}-windows",
                nightly_config(workers=2, executor=executor),
                arrivals=self.ARRIVALS, cache=StageCache.on_disk(root),
            )
            stores[executor] = load_store(root)
        serial = load_store(workdir / "store")
        for loaded in stores.values():
            assert loaded.keys() == serial.keys()
            for key, entry in loaded.items():
                assert entry is not None
                assert same_value(entry, serial[key])


class TestCleoIncremental:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("fig2-inc")
        config = CleoPipelineConfig(n_runs=3, seed=5)
        incremental = run_cleo_incremental(workdir / "windows", config)
        cold = run_cleo_pipeline(workdir / "batch", config, cache=StageCache())
        return incremental, cold

    def test_final_window_equals_cold_batch(self, run):
        incremental, cold = run
        final = incremental.final
        assert final.sizes_by_kind == cold.sizes_by_kind
        assert final.runs == cold.runs
        assert final.analysis.events_selected == cold.analysis.events_selected
        assert final.flow_report.summary_rows() == cold.flow_report.summary_rows()
        assert strip_wall_clock(final.flow_report.events) == strip_wall_clock(
            cold.flow_report.events
        )

    def test_windows_reconstruct_only_appended_runs(self, run):
        incremental, _ = run
        for window in incremental.windows:
            assert window.shard_misses == window.new_runs
            assert window.shard_hits == window.runs_seen - window.new_runs

    def test_first_window_is_all_miss_later_stages_rerun(self, run):
        """Appending a run changes every stage's input content, so stage
        hits only happen for zero-arrival windows — the savings here are
        shard-level.  Pin that so a cache-key regression (accidental
        stage hit on changed input) cannot slip through."""
        incremental, _ = run
        first = incremental.windows[0]
        assert first.stage_hits == 0
        assert first.stage_misses == CLEO_STAGES

    def test_every_window_is_accounted(self, run):
        incremental, _ = run
        assert [w for w, _ in incremental.ledger.windows] == [0, 1, 2]
        closes = [
            dict(event.attrs)
            for event in incremental.telemetry.events()
            if event.kind == "window.close"
        ]
        assert [attrs["runs"] for attrs in closes] == [1, 2, 3]

    def test_arrivals_must_cover_the_runs(self, tmp_path):
        with pytest.raises(IncrementalError, match="sum to"):
            run_cleo_incremental(
                tmp_path, CleoPipelineConfig(n_runs=3, seed=5), arrivals=[1]
            )

    def test_leading_empty_window_is_rejected_by_name(self, tmp_path):
        with pytest.raises(IncrementalError, match="window 0 is empty"):
            run_cleo_incremental(
                tmp_path, CleoPipelineConfig(n_runs=1), arrivals=[0, 1]
            )
        assert list(tmp_path.iterdir()) == []

    def test_fractional_arrivals_are_not_truncated(self, tmp_path):
        with pytest.raises(IncrementalError, match="non-integral"):
            run_cleo_incremental(
                tmp_path, CleoPipelineConfig(n_runs=2), arrivals=[1.5, 1.5]
            )
