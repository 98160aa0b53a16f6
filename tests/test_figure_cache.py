"""Warm stage-cache reruns of the figure pipelines.

Both figure flows take an optional shared StageCache; an unchanged rerun
must hit on every stage, skip all compute, and reproduce the cold run's
accounting exactly (telemetry modulo wall-clock) and its persisted
artifacts row for row.  A rerun with any one stage's entry invalidated
must do the same: the hits' writes are their ``Stage.replay``, which the
engine performs.
"""

import sqlite3
from dataclasses import replace

import pytest

from repro.arecibo.pipeline import AreciboPipelineConfig, run_arecibo_pipeline
from repro.arecibo.sky import SkyModel
from repro.arecibo.telescope import ObservationConfig
from repro.cleo.pipeline import CleoPipelineConfig, run_cleo_pipeline
from repro.core.stagecache import CachedStage, StageCache
from repro.core.telemetry import strip_wall_clock


ARECIBO_STAGE_NAMES = [
    "acquire", "ship", "archive", "process", "consolidate", "meta-analysis",
]
CLEO_STAGE_NAMES = [
    "acquisition", "reconstruction", "post-reconstruction", "monte-carlo",
    "physics-analysis",
]
ARECIBO_STAGES = len(ARECIBO_STAGE_NAMES)
CLEO_STAGES = len(CLEO_STAGE_NAMES)


def dump(path):
    """A sqlite file's full SQL dump: schema and every row, in order."""
    connection = sqlite3.connect(path)
    try:
        return list(connection.iterdump())
    finally:
        connection.close()


def event_store(workdir, store="collab"):
    """An EventStore a Figure-2 run wrote under ``workdir`` (by default
    the collaboration store): its database dump and files."""
    root = workdir / store
    files = {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted((root / "files").rglob("*"))
        if path.is_file()
    }
    return dump(root / "eventstore.db"), files


def stage_keys(cache, report):
    """``{stage: stage-cache key}`` of the run ``report`` describes, read
    from the ``cache`` it alone has primed.

    Picked by entry type, not position: the cache also holds the shard
    entries each ``map_shards`` fan-out stored.
    """
    stage_of = {
        event.attr("artifact"): event.name
        for event in report.flow_report.events
        if event.kind == "bytes.produced"
    }
    return {
        stage_of[entry.output_name]: key
        for key, entry in cache._entries.items()
        if isinstance(entry, CachedStage)
    }


def small_arecibo_config(workers=1):
    return AreciboPipelineConfig(
        n_pointings=2,
        observation=ObservationConfig(n_channels=32, n_samples=2048),
        sky=SkyModel(seed=3, pulsar_fraction=0.5, transient_rate=0.5),
        seed=11,
        workers=workers,
    )


@pytest.fixture(scope="module")
def arecibo_cold(tmp_path_factory):
    cache = StageCache()
    workdir = tmp_path_factory.mktemp("fig1-cold")
    report = run_arecibo_pipeline(workdir, small_arecibo_config(), cache=cache)
    return cache, report, workdir, stage_keys(cache, report)


class TestAreciboWarmRerun:
    def test_every_stage_hits(self, arecibo_cold, tmp_path):
        cache, _, _, _ = arecibo_cold
        hits_before = cache.hits
        run_arecibo_pipeline(tmp_path, small_arecibo_config(), cache=cache)
        assert cache.hits - hits_before == ARECIBO_STAGES

    def test_report_accounting_identical(self, arecibo_cold, tmp_path):
        cache, cold, cold_dir, _ = arecibo_cold
        warm = run_arecibo_pipeline(tmp_path, small_arecibo_config(), cache=cache)
        assert warm.flow_report.cached_stages == [
            stage.name for stage in cold.flow_report.stages
        ]
        # Nothing re-ran, yet the candidate DB is the cold one, cull included.
        assert dump(tmp_path / "candidates.db") == dump(cold_dir / "candidates.db")
        assert warm.flow_report.summary_rows() == cold.flow_report.summary_rows()
        assert strip_wall_clock(warm.flow_report.events) == strip_wall_clock(
            cold.flow_report.events
        )
        assert warm.score == cold.score
        assert warm.confirmed == cold.confirmed
        assert warm.shipment == cold.shipment
        assert warm.tape_cartridges == cold.tape_cartridges
        assert warm.raw_size == cold.raw_size
        assert warm.dedispersed_size == cold.dedispersed_size

    def test_parallel_engine_serviced_from_sequential_prime(
        self, arecibo_cold, tmp_path
    ):
        cache, cold, _, _ = arecibo_cold
        warm = run_arecibo_pipeline(
            tmp_path, small_arecibo_config(workers=3), cache=cache
        )
        assert strip_wall_clock(warm.flow_report.events) == strip_wall_clock(
            cold.flow_report.events
        )

    def test_changed_config_misses(self, arecibo_cold, tmp_path):
        cache, _, _, _ = arecibo_cold
        hits_before = cache.hits
        config = replace(small_arecibo_config(), snr_threshold=8.0)
        run_arecibo_pipeline(tmp_path, config, cache=cache)
        assert cache.hits == hits_before

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("stage", ARECIBO_STAGE_NAMES)
    def test_one_stage_missing(self, arecibo_cold, tmp_path, stage, workers):
        """Any one stage re-executes, the rest hit and replay their
        writes: ``candidates.db`` and the event log are the cold run's."""
        cache, cold, cold_dir, keys = arecibo_cold
        assert cache.invalidate(keys[stage])
        warm = run_arecibo_pipeline(
            tmp_path, small_arecibo_config(workers=workers), cache=cache
        )
        assert warm.flow_report.executed_stages == [stage]
        assert dump(tmp_path / "candidates.db") == dump(cold_dir / "candidates.db")
        assert strip_wall_clock(warm.flow_report.events) == strip_wall_clock(
            cold.flow_report.events
        )
        assert warm.confirmed == cold.confirmed
        assert warm.meta_report == cold.meta_report


CLEO_CONFIG = CleoPipelineConfig(n_runs=2, seed=5)


@pytest.fixture(scope="module")
def cleo_cold(tmp_path_factory):
    cache = StageCache()
    workdir = tmp_path_factory.mktemp("fig2-cold")
    report = run_cleo_pipeline(workdir, CLEO_CONFIG, cache=cache)
    return cache, report, workdir, stage_keys(cache, report)


class TestCleoWarmRerun:
    def test_rerun_hits_and_matches(self, tmp_path):
        cache = StageCache()
        config = CleoPipelineConfig(n_runs=2, seed=5)
        cold = run_cleo_pipeline(tmp_path / "cold", config, cache=cache)
        warm = run_cleo_pipeline(tmp_path / "warm", config, cache=cache)
        assert cache.stats()["hits"] == CLEO_STAGES
        assert warm.sizes_by_kind == cold.sizes_by_kind
        assert warm.runs == cold.runs
        assert warm.analysis.events_selected == cold.analysis.events_selected
        assert strip_wall_clock(warm.flow_report.events) == strip_wall_clock(
            cold.flow_report.events
        )
        # Same rows in the same order (Monte Carlo's merge recorded), same
        # files byte for byte.
        assert event_store(tmp_path / "warm") == event_store(tmp_path / "cold")

    def test_partial_hit_reinjects_ancestor_products(self, tmp_path):
        """Evict everything after reconstruction: the hits' products are in
        the store before the first miss reads it."""
        cache = StageCache()
        config = CleoPipelineConfig(n_runs=2, seed=5)
        cold = run_cleo_pipeline(tmp_path / "cold", config, cache=cache)
        keys = stage_keys(cache, cold)
        for stage in CLEO_STAGE_NAMES[2:]:
            assert cache.invalidate(keys[stage])
        warm = run_cleo_pipeline(tmp_path / "warm", config, cache=cache)
        assert warm.flow_report.cached_stages == CLEO_STAGE_NAMES[:2]
        assert warm.sizes_by_kind == cold.sizes_by_kind
        assert warm.analysis.events_selected == cold.analysis.events_selected
        assert strip_wall_clock(warm.flow_report.events) == strip_wall_clock(
            cold.flow_report.events
        )
        assert event_store(tmp_path / "warm") == event_store(tmp_path / "cold")

    @pytest.mark.parametrize("stage", CLEO_STAGE_NAMES)
    def test_one_stage_missing(self, cleo_cold, tmp_path, stage):
        """Any one stage re-executes, the rest hit and replay their
        writes: the EventStore (rows, order, files) and the event log are
        the cold run's."""
        cache, cold, cold_dir, keys = cleo_cold
        assert cache.invalidate(keys[stage])
        warm = run_cleo_pipeline(tmp_path, CLEO_CONFIG, cache=cache)
        assert warm.flow_report.executed_stages == [stage]
        assert event_store(tmp_path) == event_store(cold_dir)
        assert strip_wall_clock(warm.flow_report.events) == strip_wall_clock(
            cold.flow_report.events
        )
