"""Incremental reruns of the figure pipelines: windowed arrival equals batch.

Contract under test, per flow: running the pipeline window-by-window as
inputs arrive (pointings for Figure 1, runs for Figure 2) against one
shared stage cache ends byte-identical — canonical telemetry, scores,
sizes — to a single cold batch run over the union.  The stage/shard
cache counters pin the cost side: each window recomputes only the
never-seen shards, and a zero-arrival window recomputes nothing at all.
"""

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
from repro.core.stagecache import StageCache
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
