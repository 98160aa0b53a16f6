"""Tests for RFI excision, the candidate database, and the Figure-1 pipeline."""

import pytest

from repro.arecibo.candidates import SiftedCandidate
from repro.arecibo.dedisperse import dedisperse
from repro.arecibo.folding import fold
from repro.arecibo.fourier import FourierCandidate
from repro.arecibo.metaanalysis import CandidateDatabase
from repro.arecibo.pipeline import AreciboPipelineConfig, run_arecibo_pipeline
from repro.arecibo.rfi import (
    clean_filterbank,
    flag_bad_channels,
    multibeam_coincidence,
    zap_channels,
    zero_dm_subtract,
)
from repro.arecibo.sky import N_BEAMS, RFISource, SkyModel
from repro.arecibo.telescope import ObservationConfig, ObservationSimulator
from repro.core.errors import SearchError
from repro.core.units import Duration
from repro.db.query import Select

from tests.arecibo.conftest import SMALL_CONFIG, single_pulsar_pointing


class TestChannelExcision:
    @pytest.fixture(scope="class")
    def narrowband_observation(self, bright_pulsar):
        rfi = RFISource("carrier", kind="narrowband", channels=(7, 8), strength=10.0)
        pointing = single_pulsar_pointing(bright_pulsar, beam=2, rfi=[rfi])
        return ObservationSimulator(SMALL_CONFIG).observe(pointing, seed=5)

    def test_flags_contaminated_channels(self, narrowband_observation):
        flagged = flag_bad_channels(narrowband_observation[0])
        assert set(flagged) >= {7, 8}
        assert len(flagged) <= 6

    def test_zap_replaces_with_noise(self, narrowband_observation):
        filterbank = narrowband_observation[0]
        cleaned = zap_channels(filterbank, [7, 8])
        assert cleaned.data[7].var() == pytest.approx(1.0, rel=0.2)
        # Original untouched.
        assert filterbank.data[7].var() > 2.0

    def test_zap_out_of_range_rejected(self, narrowband_observation):
        with pytest.raises(SearchError):
            zap_channels(narrowband_observation[0], [999])

    def test_clean_filterbank_preserves_pulsar(self, narrowband_observation):
        cleaned, flagged = clean_filterbank(narrowband_observation[2])
        snr = fold(dedisperse(cleaned, 50.0), cleaned.tsamp_s, 0.1).snr()
        assert snr > 8  # pulsar survives excision


class TestZeroDm:
    def test_removes_impulsive_rfi(self, bright_pulsar):
        rfi = RFISource("lightning", kind="impulsive", rate_per_obs=5.0, strength=15.0)
        pointing = single_pulsar_pointing(bright_pulsar, beam=2, rfi=[rfi])
        beams = ObservationSimulator(SMALL_CONFIG).observe(pointing, seed=6)
        dirty = beams[0]  # no pulsar, just spikes
        cleaned = zero_dm_subtract(dirty)
        assert cleaned.data.mean(axis=0).std() < 0.2 * dirty.data.mean(axis=0).std()

    def test_dispersed_signal_survives(self, pulsar_observation):
        filterbank = pulsar_observation[2]
        cleaned = zero_dm_subtract(filterbank)
        snr = fold(dedisperse(cleaned, 50.0), cleaned.tsamp_s, 0.1).snr()
        assert snr > 8


class TestMultibeam:
    def make(self, freq, snr, beam):
        return FourierCandidate(
            freq_hz=freq, period_s=1 / freq, snr=snr, n_harmonics=1, dm=10.0, beam=beam
        )

    def test_culls_widespread_signal(self):
        by_beam = [[self.make(8.1, 9.0, beam)] for beam in range(N_BEAMS)]
        result = multibeam_coincidence(by_beam, max_beams=3)
        assert len(result.rejected) == N_BEAMS
        assert not result.accepted

    def test_keeps_single_beam_signal(self):
        by_beam = [[] for _ in range(N_BEAMS)]
        by_beam[2] = [self.make(10.0, 15.0, 2)]
        result = multibeam_coincidence(by_beam, max_beams=3)
        assert len(result.accepted) == 1
        assert not result.rejected

    def test_adjacent_beam_spillover_tolerated(self):
        by_beam = [[] for _ in range(N_BEAMS)]
        for beam in (2, 3):  # bright pulsar leaking into a neighbour
            by_beam[beam] = [self.make(10.0, 12.0, beam)]
        result = multibeam_coincidence(by_beam, max_beams=3)
        assert len(result.accepted) == 2

    def test_validation(self):
        with pytest.raises(SearchError):
            multibeam_coincidence([[]], max_beams=3)
        with pytest.raises(SearchError):
            multibeam_coincidence([[] for _ in range(N_BEAMS)], max_beams=0)


class TestCandidateDatabase:
    def sifted(self, pointing, freq, snr=10.0, dm=20.0, dm_hits=30, beam=0):
        return SiftedCandidate(
            period_s=1 / freq,
            freq_hz=freq,
            snr=snr,
            dm=dm,
            n_harmonics=2,
            n_dm_hits=dm_hits,
            pointing_id=pointing,
            beam=beam,
        )

    def test_add_and_query(self):
        with CandidateDatabase() as db:
            db.add_candidates([self.sifted(0, 10.0), self.sifted(1, 25.0)])
            assert db.count() == 2
            assert db.pointings() == [0, 1]
            strongest = Select("candidates").order_by("snr DESC").run(db.db)[:1]
            assert len(strongest) == 1

    def test_cull_widespread_frequency(self):
        with CandidateDatabase() as db:
            # Radar at 8.1 Hz in 5 pointings; pulsar at 10 Hz in one.
            db.add_candidates(
                [self.sifted(p, 8.1, dm=5.0) for p in range(5)]
                + [self.sifted(9, 10.0, dm=40.0)]
            )
            report = db.cull_widespread(max_pointings=2)
            assert report.terrestrial == 5
            assert report.astrophysical == 1
            assert report.widespread_frequencies == [pytest.approx(8.1)]
            assert db.count("terrestrial") == 5

    def test_cull_low_dm(self):
        with CandidateDatabase() as db:
            db.add_candidates([self.sifted(0, 10.0, dm=0.2)])
            report = db.cull_widespread()
            assert report.terrestrial == 1

    def test_confirmed_requires_dm_coherence(self):
        with CandidateDatabase() as db:
            db.add_candidates(
                [
                    self.sifted(0, 10.0, snr=12.0, dm_hits=50),
                    self.sifted(1, 33.0, snr=12.0, dm_hits=2),  # noise-like
                ]
            )
            db.cull_widespread()
            confirmed = db.confirmed_pulsars(min_snr=7.0, min_dm_hits=10)
            assert len(confirmed) == 1
            assert confirmed[0]["freq_hz"] == pytest.approx(10.0)

    def test_version_tagging(self):
        with CandidateDatabase(version="search_v2") as db:
            db.add_candidates([self.sifted(0, 10.0)])
            row = Select("candidates").order_by("snr DESC").run(db.db)[0]
            assert row["version"] == "search_v2"


class TestPipeline:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        config = AreciboPipelineConfig(
            n_pointings=4,
            observation=ObservationConfig(n_channels=48, n_samples=4096),
            # A bright, isolated-pulsar population: the deterministic
            # regression target.  Binary recovery is exercised separately
            # (accelsearch tests and the C4 benchmark).
            sky=SkyModel(
                seed=41,
                pulsar_fraction=0.6,
                binary_fraction=0.0,
                period_range_s=(0.03, 0.12),
                snr_range=(15.0, 30.0),
            ),
        )
        return run_arecibo_pipeline(tmp_path_factory.mktemp("survey"), config)

    def test_stages_present_in_order(self, report):
        names = [stage.name for stage in report.flow_report.stages]
        assert names == [
            "acquire",
            "ship",
            "archive",
            "process",
            "consolidate",
            "meta-analysis",
        ]

    def test_recovers_injected_pulsars(self, report):
        assert report.score.injected >= 1
        assert report.score.recall == 1.0
        assert report.score.false_candidates <= 3

    def test_sifting_and_multibeam_reduce_candidates(self, report):
        assert report.candidate_count_sifted < report.candidate_count_presift / 10
        assert report.multibeam_rejected > 0

    def test_meta_analysis_culls_terrestrial(self, report):
        assert report.meta_report.terrestrial > 0
        assert report.meta_report.astrophysical >= 1

    def test_volume_accounting(self, report):
        # Dedispersed intermediates exceed raw (paper: ~equal per beam,
        # summed over the trial block).
        assert report.dedispersed_size.bytes > report.raw_size.bytes
        # Candidates are a tiny fraction of raw (paper: ~0.1%).
        assert report.products_fraction < 0.01
        assert report.shipment.report.clean
        assert report.tape_cartridges >= 1

    def test_processors_estimate_positive(self, report):
        needed = report.processors_needed(Duration.minutes(1))
        assert needed > 0
