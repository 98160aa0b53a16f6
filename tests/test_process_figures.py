"""Inline vs multi-process shards in the figure flows.

The acceptance bar for the process executor: for both figure pipelines,
``executor="process"`` with several workers must reproduce the inline
run *byte-identically* — FlowReport stage rows, provenance chains, domain
results, and the canonical telemetry log both in memory and as persisted
to ``telemetry.jsonl``.  The two modes differ only in wall-clock.  (The
classes keep their ``ThreeWay`` names from when stage threads were a
third mode.)
"""

import pytest

from repro.arecibo.pipeline import AreciboPipelineConfig, run_arecibo_pipeline
from repro.arecibo.sky import SkyModel
from repro.arecibo.telescope import ObservationConfig
from repro.cleo.pipeline import CleoPipelineConfig, run_cleo_pipeline
from repro.core.telemetry import read_event_log, strip_wall_clock


def flow_snapshot(flow_report):
    return {
        "rows": flow_report.summary_rows(),
        "peak": flow_report.peak_live_storage.bytes,
        "cpu": flow_report.total_cpu_time.seconds,
    }


def canonical_log(flow_report):
    return strip_wall_clock(flow_report.events)


def persisted_canonical_log(workdir):
    return strip_wall_clock(read_event_log(workdir / "telemetry.jsonl"))


def arecibo_config(seed, workers, executor):
    return AreciboPipelineConfig(
        n_pointings=2,
        observation=ObservationConfig(n_channels=32, n_samples=2048),
        sky=SkyModel(
            seed=seed,
            pulsar_fraction=0.5,
            binary_fraction=0.0,
            transient_rate=0.5,
            period_range_s=(0.03, 0.12),
            snr_range=(15.0, 30.0),
        ),
        seed=seed,
        workers=workers,
        executor=executor,
    )


class TestFigure1ThreeWay:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fig1")
        out = {}
        for tag, workers, executor in [
            ("seq", 1, "thread"),
            ("proc", 4, "process"),
        ]:
            out[tag] = (
                run_arecibo_pipeline(
                    root / tag, arecibo_config(7, workers, executor)
                ),
                root / tag,
            )
        return out

    @pytest.mark.parametrize("mode", ["proc"])
    def test_flow_accounting_matches_sequential(self, runs, mode):
        reference, _ = runs["seq"]
        candidate, _ = runs[mode]
        assert flow_snapshot(candidate.flow_report) == flow_snapshot(
            reference.flow_report
        )

    @pytest.mark.parametrize("mode", ["proc"])
    def test_science_results_match_sequential(self, runs, mode):
        reference, _ = runs["seq"]
        candidate, _ = runs[mode]
        assert candidate.score == reference.score
        assert (
            candidate.candidate_count_presift
            == reference.candidate_count_presift
        )
        assert (
            candidate.candidate_count_sifted == reference.candidate_count_sifted
        )
        assert candidate.transient_count == reference.transient_count
        assert candidate.multibeam_rejected == reference.multibeam_rejected
        assert candidate.dedispersed_size == reference.dedispersed_size

    @pytest.mark.parametrize("mode", ["proc"])
    def test_canonical_logs_byte_identical(self, runs, mode):
        reference, ref_dir = runs["seq"]
        candidate, cand_dir = runs[mode]
        assert canonical_log(candidate.flow_report) == canonical_log(
            reference.flow_report
        )
        assert persisted_canonical_log(cand_dir) == persisted_canonical_log(
            ref_dir
        )


class TestFigure2ThreeWay:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fig2")
        out = {}
        for tag, workers, executor in [
            ("seq", 1, "thread"),
            ("proc", 3, "process"),
        ]:
            out[tag] = (
                run_cleo_pipeline(
                    root / tag,
                    CleoPipelineConfig(
                        n_runs=2,
                        events_scale=0.0003,
                        seed=11,
                        workers=workers,
                        executor=executor,
                    ),
                ),
                root / tag,
            )
        return out

    @pytest.mark.parametrize("mode", ["proc"])
    def test_flow_accounting_matches_sequential(self, runs, mode):
        reference, _ = runs["seq"]
        candidate, _ = runs[mode]
        assert flow_snapshot(candidate.flow_report) == flow_snapshot(
            reference.flow_report
        )

    @pytest.mark.parametrize("mode", ["proc"])
    def test_physics_results_match_sequential(self, runs, mode):
        reference, _ = runs["seq"]
        candidate, _ = runs[mode]
        assert (
            candidate.analysis.histogram.fingerprint()
            == reference.analysis.histogram.fingerprint()
        )
        assert {k: v.bytes for k, v in candidate.sizes_by_kind.items()} == {
            k: v.bytes for k, v in reference.sizes_by_kind.items()
        }

    @pytest.mark.parametrize("mode", ["proc"])
    def test_canonical_logs_byte_identical(self, runs, mode):
        reference, ref_dir = runs["seq"]
        candidate, cand_dir = runs[mode]
        assert canonical_log(candidate.flow_report) == canonical_log(
            reference.flow_report
        )
        assert persisted_canonical_log(cand_dir) == persisted_canonical_log(
            ref_dir
        )
