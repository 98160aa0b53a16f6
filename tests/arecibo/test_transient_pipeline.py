"""Tests for the transient (single-pulse) path through the Figure-1 pipeline."""

import pytest

from repro.arecibo.metaanalysis import CandidateDatabase
from repro.arecibo.pipeline import AreciboPipelineConfig, run_arecibo_pipeline
from repro.arecibo.singlepulse import SinglePulseEvent
from repro.arecibo.sky import SkyModel
from repro.arecibo.telescope import ObservationConfig
from repro.core.errors import SearchError
from repro.db.query import Select


@pytest.fixture(scope="module")
def transient_run(tmp_path_factory):
    config = AreciboPipelineConfig(
        n_pointings=4,
        observation=ObservationConfig(n_channels=48, n_samples=4096),
        sky=SkyModel(
            seed=41,
            pulsar_fraction=0.3,
            binary_fraction=0.0,
            transient_rate=0.8,
            period_range_s=(0.03, 0.12),
            snr_range=(15.0, 30.0),
        ),
    )
    workdir = tmp_path_factory.mktemp("transients")
    return workdir, run_arecibo_pipeline(workdir, config)


@pytest.fixture(scope="module")
def transient_report(transient_run):
    return transient_run[1]


class TestTransientPipeline:
    def test_injected_transients_recovered(self, transient_report):
        score = transient_report.score
        assert score.transients_injected >= 2
        assert score.transients_recovered >= 0.5 * score.transients_injected
        assert transient_report.transient_count >= score.transients_recovered

    def test_transient_false_load_bounded(self, transient_report):
        """Stored events beyond the injected ones stay a small residue."""
        extra = (
            transient_report.transient_count
            - transient_report.score.transients_recovered
        )
        per_pointing = extra / transient_report.config.n_pointings
        assert per_pointing <= 4

    def test_transient_db_rows(self, tmp_path_factory):
        db = CandidateDatabase()
        events = [
            SinglePulseEvent(time_s=1.0, width_s=0.004, snr=12.0, dm=30.0),
            SinglePulseEvent(time_s=1.7, width_s=0.002, snr=9.0, dm=28.0),
        ]
        assert db.add_transients(events, pointing_id=3, beam=2) == 2
        rows = db.transients()
        assert len(rows) == 2
        assert rows[0]["snr"] == 12.0  # strongest first
        assert db.transients(pointing_id=99) == []
        assert len(db.transients(pointing_id=3)) == 2
        db.close()

    def test_transient_beam_ids_match_sifted_convention(self, transient_run):
        """Transient rows carry telescope beam ids (``filterbank.beam``),
        the same convention candidate rows use — not list positions."""
        from repro.arecibo.sky import N_BEAMS

        workdir, report = transient_run
        db = CandidateDatabase(workdir / "candidates.db")
        try:
            transient_rows = db.transients()
            candidate_beams = {row["beam"] for row in Select("candidates").run(db.db)}
        finally:
            db.close()
        assert len(transient_rows) == report.transient_count > 0

        # Both tables draw beam ids from the same 0..N_BEAMS-1 id space.
        beam_id_space = set(range(N_BEAMS))
        assert {row["beam"] for row in transient_rows} <= beam_id_space
        assert candidate_beams <= beam_id_space

        # Stronger: every recovered injected transient must be recorded
        # under the beam the sky model injected it into.  Recording the
        # list position instead of ``filterbank.beam`` would scramble this
        # whenever quieter beams produce no events.
        duration = report.config.observation.duration_s
        matched = 0
        for pointing in report.pointings:
            for true_beam, transients in enumerate(pointing.transients_by_beam):
                for truth in transients:
                    expected_time = truth.time_s * duration
                    hits = [
                        row
                        for row in transient_rows
                        if row["pointing_id"] == pointing.pointing_id
                        and abs(row["time_s"] - expected_time) <= 0.05 * duration
                    ]
                    if hits:
                        matched += 1
                        assert {row["beam"] for row in hits} == {true_beam}
        assert matched == report.score.transients_recovered > 0

    def test_transient_recall_property_when_none_injected(self, tmp_path):
        config = AreciboPipelineConfig(
            n_pointings=2,
            observation=ObservationConfig(n_channels=32, n_samples=2048),
            sky=SkyModel(seed=44, pulsar_fraction=0.0, transient_rate=0.0),
        )
        report = run_arecibo_pipeline(tmp_path, config)
        assert report.score.transients_injected == 0
        assert report.score.transients_recovered == 0


@pytest.mark.parametrize(
    "field", ["single_pulse_dm_stride", "accel_dm_stride", "accel_trials"]
)
def test_config_rejects_zero_strides_and_trial_counts(field):
    """Was: ``range() arg 3 must not be zero`` inside the `process` stage,
    after the engine had spent its retries."""
    with pytest.raises(SearchError, match=f"{field} must be >= 1"):
        AreciboPipelineConfig(**{field: 0})
    assert getattr(AreciboPipelineConfig(**{field: 1}), field) == 1
