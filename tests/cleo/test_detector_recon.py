"""Tests for the synthetic detector, calibration, and reconstruction."""

import numpy as np
import pytest

from repro.core.errors import EventStoreError, SearchError
from repro.cleo.calibration import (
    CalibrationSet,
    degraded_calibration,
    perfect_calibration,
    true_misalignment,
)
from repro.cleo.detector import (
    ASU_ADC,
    ASU_HITS,
    ASU_TRIGGER,
    Detector,
    DetectorConfig,
    hits_of,
)
from repro.cleo.reconstruction import Reconstructor, track_residual_bias, tracks_of
from repro.eventstore.arrays import array_asu, asu_array, pack_array, unpack_array
from repro.eventstore.model import Event
from repro.eventstore.provenance import stamp_step

from tests.cleo.conftest import oracle_measure


@pytest.fixture()
def config():
    return DetectorConfig()


@pytest.fixture()
def misalignment(config):
    return true_misalignment(config.n_planes, 0.2, seed=3)


@pytest.fixture()
def detector(config, misalignment):
    return Detector(config, misalignment)


class TestArrays:
    def test_round_trip(self):
        array = np.arange(12, dtype=np.float32).reshape(3, 4)
        assert np.array_equal(unpack_array(pack_array(array)), array)

    def test_dtype_preserved(self):
        for dtype in (np.float64, np.int32, np.uint8):
            array = np.arange(5).astype(dtype)
            assert unpack_array(pack_array(array)).dtype == dtype

    def test_asu_round_trip(self):
        array = np.random.default_rng(0).normal(size=(4, 8)).astype(np.float32)
        asu = array_asu("hits", array)
        assert np.array_equal(asu_array(asu), array)

    def test_truncated_payload_rejected(self):
        payload = pack_array(np.arange(10.0))
        with pytest.raises(EventStoreError):
            unpack_array(payload[:-3])
        with pytest.raises(EventStoreError):
            unpack_array(b"\x01")


class TestCalibration:
    def test_perfect_calibration_cancels_misalignment(self, config, misalignment):
        calibration = perfect_calibration(misalignment, "cal_v1")
        hits = np.zeros((3, config.n_planes)) + misalignment
        corrected = calibration.apply(hits)
        assert np.allclose(corrected, 0.0)

    def test_degraded_calibration_leaves_residual(self, misalignment):
        calibration = degraded_calibration(misalignment, "cal_v0", error_cm=0.5, seed=1)
        residual = calibration.offsets - misalignment
        assert np.abs(residual).max() > 0.05

    def test_shape_mismatch_rejected(self, misalignment):
        calibration = perfect_calibration(misalignment, "cal_v1")
        with pytest.raises(EventStoreError):
            calibration.apply(np.zeros((2, len(misalignment) + 1)))

    def test_validation(self):
        with pytest.raises(EventStoreError):
            CalibrationSet(version="", offsets=np.zeros(4))
        with pytest.raises(EventStoreError):
            CalibrationSet(version="v", offsets=np.zeros((2, 2)))


class TestDetector:
    def test_event_has_expected_asus(self, detector):
        event, truth = detector.generate_event(1, 0, np.random.default_rng(0))
        assert event.asu_names == sorted([ASU_HITS, ASU_TRIGGER, ASU_ADC])
        hits = hits_of(event)
        assert hits.shape == (len(truth.tracks), detector.config.n_planes)

    def test_generate_run_respects_paper_parameters(self, detector):
        run, events, truths = detector.generate_run(
            run_number=5, start_time=0.0, seed=2, events_scale=0.001
        )
        assert 45 <= run.duration.minutes_ <= 60
        nominal = int(run.condition_map["nominal_events"])
        assert 15_000 <= nominal <= 300_000
        assert run.event_count == len(events) == len(truths)
        assert run.event_count == max(1, int(nominal * 0.001))

    def test_runs_are_reproducible(self, detector):
        run_a, events_a, _ = detector.generate_run(1, 0.0, seed=9, events_scale=0.0005)
        run_b, events_b, _ = detector.generate_run(1, 0.0, seed=9, events_scale=0.0005)
        assert run_a.event_count == run_b.event_count
        assert hits_of(events_a[0]).tobytes() == hits_of(events_b[0]).tobytes()

    def test_broadcast_truth_equals_the_per_plane_loop(self, detector):
        """Same float64 multiply-then-add per element, same draws, same bytes."""
        rng = np.random.default_rng(4)
        for n_tracks in range(1, detector.config.max_multiplicity + 1):
            tracks = detector._sample_tracks(n_tracks, rng)
            hits = detector.measure(tracks, np.random.default_rng(n_tracks))
            expected = oracle_measure(detector, tracks, np.random.default_rng(n_tracks))
            assert hits.dtype == np.float32 and hits.shape == (n_tracks, 8)
            assert hits.tobytes() == expected.tobytes()

    def test_multiplicity_is_clamped_to_the_detector_range(self, config, misalignment):
        rng = np.random.default_rng(0)
        sparse = Detector(DetectorConfig(mean_multiplicity=0.01), misalignment)
        busy = Detector(DetectorConfig(mean_multiplicity=40.0), misalignment)
        assert {sparse._sample_multiplicity(rng) for _ in range(50)} == {1}
        assert {busy._sample_multiplicity(rng) for _ in range(50)} == {12}

    def test_invalid_scale_rejected(self, detector):
        with pytest.raises(EventStoreError):
            detector.generate_run(1, 0.0, seed=0, events_scale=0.0)

    def test_misalignment_shape_checked(self, config):
        with pytest.raises(EventStoreError):
            Detector(config, np.zeros(config.n_planes + 1))

    def test_config_validation(self):
        with pytest.raises(EventStoreError):
            DetectorConfig(n_planes=2)
        with pytest.raises(EventStoreError):
            DetectorConfig(mean_multiplicity=0)


class TestReconstruction:
    def make_recon(self, config, misalignment, good_calibration=True):
        if good_calibration:
            calibration = perfect_calibration(misalignment, "cal_v1")
        else:
            calibration = degraded_calibration(misalignment, "cal_v0", 0.5, seed=4)
        return Reconstructor(config, calibration, "Feb13_04_P2")

    def test_version_string_convention(self, config, misalignment):
        recon = self.make_recon(config, misalignment)
        assert recon.version == "Recon_Feb13_04_P2"

    def test_fit_recovers_truth(self, config, misalignment, detector):
        recon = self.make_recon(config, misalignment)
        rng = np.random.default_rng(5)
        event, truth = detector.generate_event(1, 0, rng)
        tracks = recon.fit_tracks(hits_of(event))
        assert tracks.shape == (len(truth.tracks), 3)
        for fitted, true_track in zip(tracks, truth.tracks):
            assert fitted[0] == pytest.approx(true_track.x0, abs=0.2)
            assert fitted[1] == pytest.approx(true_track.slope, abs=0.02)
        # Good calibration: chi2/dof near 1.
        assert tracks[:, 2].mean() < 3.0

    def test_bad_calibration_inflates_chi2_and_bias(self, config, misalignment, detector):
        good = self.make_recon(config, misalignment, good_calibration=True)
        bad = self.make_recon(config, misalignment, good_calibration=False)
        rng = np.random.default_rng(6)
        events, truths = [], []
        for number in range(30):
            event, truth = detector.generate_event(1, number, rng)
            events.append(event)
            truths.append(np.array([t.x0 for t in truth.tracks]))
        good_events = [good.reconstruct_event(e) for e in events]
        bad_events = [bad.reconstruct_event(e) for e in events]
        assert track_residual_bias(bad_events, truths) > track_residual_bias(
            good_events, truths
        )
        good_chi2 = np.mean([tracks_of(e)[:, 2].mean() for e in good_events])
        bad_chi2 = np.mean([tracks_of(e)[:, 2].mean() for e in bad_events])
        assert bad_chi2 > 2 * good_chi2

    def test_reconstruct_run_stamps_provenance(self, config, misalignment, detector):
        recon = self.make_recon(config, misalignment)
        rng = np.random.default_rng(7)
        events = [detector.generate_event(1, n, rng)[0] for n in range(5)]
        raw_stamp = stamp_step("DAQ", "daq_v3")
        recon_events, stamp = recon.reconstruct_run(events, raw_stamp)
        assert len(recon_events) == 5
        assert len(stamp.history) == 2
        assert "cal_v1" in stamp.history[1]

    def test_bad_hits_shape_rejected(self, config, misalignment):
        recon = self.make_recon(config, misalignment)
        with pytest.raises(SearchError):
            recon.fit_tracks(np.zeros((2, config.n_planes + 1), dtype=np.float32))

    def test_an_event_with_no_tracks_is_refused_by_name(self, config, misalignment):
        recon = self.make_recon(config, misalignment)
        empty = Event(
            run_number=4, event_number=17,
            asus={ASU_HITS: array_asu(ASU_HITS, np.zeros((0, config.n_planes), np.float32))},
        )
        with pytest.raises(SearchError, match="run 4 event 17"):
            recon.reconstruct_event(empty)

    def test_empty_residual_comparison_rejected(self):
        with pytest.raises(SearchError):
            track_residual_bias([], [])
