"""Warm stage-cache reruns of the figure pipelines.

Both figure flows take an optional shared StageCache; an unchanged rerun
must hit on every stage, skip all compute, and reproduce the cold run's
accounting exactly (telemetry modulo wall-clock) and its persisted
artifacts row for row.  A rerun with any one stage's entry invalidated
must do the same: the hits' writes are their ``Stage.replay``, which the
engine performs.
"""

from dataclasses import replace

import pytest

from repro.arecibo.pipeline import AreciboPipelineConfig, run_arecibo_pipeline
from repro.arecibo.sky import SkyModel
from repro.arecibo.telescope import ObservationConfig
from repro.cleo.pipeline import CleoPipelineConfig, run_cleo_pipeline
from repro.core.stagecache import CachedStage, StageCache
from tests.conftest import fingerprint


ARECIBO_STAGE_NAMES = [
    "acquire", "ship", "archive", "process", "consolidate", "meta-analysis",
]
CLEO_STAGE_NAMES = [
    "acquisition", "reconstruction", "post-reconstruction", "monte-carlo",
    "physics-analysis",
]
ARECIBO_STAGES = len(ARECIBO_STAGE_NAMES)
CLEO_STAGES = len(CLEO_STAGE_NAMES)


def small_arecibo_config(workers=1):
    return AreciboPipelineConfig(
        n_pointings=2,
        observation=ObservationConfig(n_channels=32, n_samples=2048),
        sky=SkyModel(seed=3, pulsar_fraction=0.5, transient_rate=0.5),
        seed=11,
        workers=workers,
    )


def primed(run, workdir, config):
    """A cold run on a fresh cache: the cache, the report, its fingerprint,
    and ``{stage: key}`` (a fresh cache holds the stage entries in the
    order the stages ran, among the shard entries)."""
    cache = StageCache()
    report = run(workdir, config, cache=cache)
    ran = [stage.name for stage in report.flow_report.stages]
    stored = [key for key, entry in cache._entries.items() if isinstance(entry, CachedStage)]
    return cache, report, fingerprint(report, workdir), dict(zip(ran, stored))


@pytest.fixture(scope="module")
def arecibo_cold(tmp_path_factory):
    return primed(
        run_arecibo_pipeline, tmp_path_factory.mktemp("fig1-cold"), small_arecibo_config()
    )


class TestAreciboWarmRerun:
    def test_every_stage_hits(self, arecibo_cold, tmp_path):
        cache = arecibo_cold[0]
        hits_before = cache.hits
        run_arecibo_pipeline(tmp_path, small_arecibo_config(), cache=cache)
        assert cache.hits - hits_before == ARECIBO_STAGES

    def test_report_accounting_identical(self, arecibo_cold, tmp_path):
        cache, cold, cold_fingerprint, _ = arecibo_cold
        warm = run_arecibo_pipeline(tmp_path, small_arecibo_config(), cache=cache)
        assert warm.flow_report.cached_stages == ARECIBO_STAGE_NAMES
        # Nothing re-ran, yet the candidate DB is the cold one, cull included.
        assert fingerprint(warm, tmp_path) == cold_fingerprint
        assert warm.confirmed == cold.confirmed
        assert warm.shipment == cold.shipment
        assert warm.tape_cartridges == cold.tape_cartridges

    def test_parallel_engine_serviced_from_sequential_prime(
        self, arecibo_cold, tmp_path
    ):
        cache, _, cold_fingerprint, _ = arecibo_cold
        warm = run_arecibo_pipeline(
            tmp_path, small_arecibo_config(workers=3), cache=cache
        )
        assert fingerprint(warm, tmp_path) == cold_fingerprint

    def test_changed_config_misses(self, arecibo_cold, tmp_path):
        cache = arecibo_cold[0]
        hits_before = cache.hits
        config = replace(small_arecibo_config(), snr_threshold=8.0)
        run_arecibo_pipeline(tmp_path, config, cache=cache)
        assert cache.hits == hits_before

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("stage", ARECIBO_STAGE_NAMES)
    def test_one_stage_missing(self, arecibo_cold, tmp_path, stage, workers):
        """Any one stage re-executes, the rest hit and replay their
        writes: ``candidates.db`` and the event log are the cold run's."""
        cache, cold, cold_fingerprint, keys = arecibo_cold
        assert cache.invalidate(keys[stage])
        warm = run_arecibo_pipeline(
            tmp_path, small_arecibo_config(workers=workers), cache=cache
        )
        assert warm.flow_report.executed_stages == [stage]
        assert fingerprint(warm, tmp_path) == cold_fingerprint
        assert warm.confirmed == cold.confirmed
        assert warm.meta_report == cold.meta_report


CLEO_CONFIG = CleoPipelineConfig(n_runs=2, seed=5)


@pytest.fixture(scope="module")
def cleo_cold(tmp_path_factory):
    return primed(run_cleo_pipeline, tmp_path_factory.mktemp("fig2-cold"), CLEO_CONFIG)


class TestCleoWarmRerun:
    """Equal fingerprints cover the EventStores too: the same rows in the
    same order (Monte Carlo's merge recorded), the same files byte for
    byte."""

    def test_rerun_hits_and_matches(self, cleo_cold, tmp_path):
        cache, _, cold_fingerprint, _ = cleo_cold
        hits_before = cache.hits
        warm = run_cleo_pipeline(tmp_path, CLEO_CONFIG, cache=cache)
        assert cache.hits - hits_before == CLEO_STAGES
        assert fingerprint(warm, tmp_path) == cold_fingerprint

    def test_partial_hit_reinjects_ancestor_products(self, cleo_cold, tmp_path):
        """Evict everything after reconstruction: the hits' products are in
        the store before the first miss reads it."""
        cache, _, cold_fingerprint, keys = cleo_cold
        for stage in CLEO_STAGE_NAMES[2:]:
            assert cache.invalidate(keys[stage])
        warm = run_cleo_pipeline(tmp_path, CLEO_CONFIG, cache=cache)
        assert warm.flow_report.cached_stages == CLEO_STAGE_NAMES[:2]
        assert fingerprint(warm, tmp_path) == cold_fingerprint

    @pytest.mark.parametrize("stage", CLEO_STAGE_NAMES)
    def test_one_stage_missing(self, cleo_cold, tmp_path, stage):
        """Any one stage re-executes, the rest hit and replay their
        writes: the EventStore (rows, order, files) and the event log are
        the cold run's."""
        cache, _, cold_fingerprint, keys = cleo_cold
        assert cache.invalidate(keys[stage])
        warm = run_cleo_pipeline(tmp_path, CLEO_CONFIG, cache=cache)
        assert warm.flow_report.executed_stages == [stage]
        assert fingerprint(warm, tmp_path) == cold_fingerprint
