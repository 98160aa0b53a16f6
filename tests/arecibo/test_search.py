"""Tests for the search chain: dedispersion, Fourier search, folding,
acceleration search, single-pulse search, and sifting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arecibo.accelsearch import (
    accel_search,
    acceleration_trials,
    resample_for_acceleration,
)
from repro.arecibo.candidates import match_to_truth, sift
from repro.arecibo.dedisperse import (
    DMGrid,
    dedisperse,
    dedisperse_all,
    dedispersed_size,
    delay_samples,
)
from repro.arecibo.folding import fold, refine_period
from repro.arecibo.fourier import (
    FourierCandidate,
    harmonic_sum,
    power_spectrum,
    search_dm_block,
    search_spectrum,
    summed_snr,
)
from repro.arecibo.singlepulse import search_single_pulses
from repro.arecibo.sky import Pulsar, Transient
from repro.arecibo.telescope import ObservationSimulator
from repro.core.errors import SearchError

from tests.arecibo.conftest import SMALL_CONFIG, single_pulsar_pointing


@pytest.fixture(scope="module")
def pulsar_beam(pulsar_observation):
    """The filterbank containing the bright test pulsar (P=0.1 s, DM=50)."""
    return pulsar_observation[2]


class TestDedispersion:
    def test_matched_grid_resolution(self, pulsar_beam):
        grid = DMGrid.matched(pulsar_beam, dm_max=100.0)
        # One-sample smearing steps over a 200 MHz band: O(100) trials,
        # the scaled version of the survey's "about 1000 trial values".
        assert 50 <= len(grid) <= 400
        assert grid.trials[0] == 0.0
        assert grid.trials[-1] >= 100.0 - 1e-9

    def test_dedispersion_at_true_dm_boosts_signal(self, pulsar_beam):
        at_truth = dedisperse(pulsar_beam, 50.0)
        at_zero = dedisperse(pulsar_beam, 0.0)
        # Folding at the true period: the pulse survives dedispersion at the
        # true DM but is smeared across ~60 samples at DM 0.
        snr_truth = fold(at_truth, pulsar_beam.tsamp_s, 0.1).snr()
        snr_zero = fold(at_zero, pulsar_beam.tsamp_s, 0.1).snr()
        assert snr_truth > 2 * snr_zero

    def test_delay_samples_monotone(self, pulsar_beam):
        shifts = delay_samples(pulsar_beam, 50.0)
        assert shifts[0] > shifts[-1]  # low channels lag more
        assert shifts[-1] <= 1  # reference is the top of the band
        assert shifts[0] > 20  # dispersion is resolvable at this DM

    def test_block_size_matches_storage_claim(self, pulsar_beam):
        """Trial block ~ raw size when n_trials ~ n_channels (the 2x claim)."""
        grid = DMGrid.linear(0, 100, pulsar_beam.n_channels)
        block = dedisperse_all(pulsar_beam, grid)
        assert block.shape == (pulsar_beam.n_channels, pulsar_beam.n_samples)
        assert dedispersed_size(pulsar_beam, grid).bytes == pulsar_beam.size.bytes

    def test_grid_validation(self):
        with pytest.raises(SearchError):
            DMGrid(trials=())
        with pytest.raises(SearchError):
            DMGrid(trials=(5.0, 1.0))
        with pytest.raises(SearchError):
            DMGrid(trials=(-1.0, 1.0))
        with pytest.raises(SearchError):
            DMGrid.linear(10, 5, 10)

    def test_nearest_trial(self):
        grid = DMGrid.linear(0, 100, 11)
        assert grid.nearest_trial(52.0) == 50.0


class TestFourierSearch:
    def test_noise_spectrum_normalized(self):
        rng = np.random.default_rng(0)
        spectrum = power_spectrum(rng.normal(size=8192))
        assert spectrum.mean() == pytest.approx(1.0, rel=0.15)

    def test_detects_pulsar(self, pulsar_beam):
        """Detection lands at the fundamental or a harmonic (both count)."""
        series = dedisperse(pulsar_beam, 50.0)
        candidates = search_spectrum(series, pulsar_beam.tsamp_s, 50.0)
        assert candidates, "bright pulsar must be detected"
        matched = match_to_truth(sift(candidates), true_period_s=0.1)
        assert matched is not None
        assert matched.snr > 10

    def test_harmonic_summing_beats_single_harmonic(self):
        """A short-duty-cycle on-bin pulse train gains from harmonic summing."""
        rng = np.random.default_rng(7)
        n, tsamp = 4096, 0.0005
        total_time = n * tsamp  # 2.048 s
        f0 = 32 / total_time    # exactly bin 31 after DC removal
        times = np.arange(n) * tsamp
        phase = (times * f0) % 1.0
        pulse = np.exp(-0.5 * ((np.minimum(phase, 1 - phase)) / 0.01) ** 2)
        series = rng.normal(size=n) + 1.5 * pulse
        spectrum = power_spectrum(series)
        bin_of_f0 = 31
        single = summed_snr(harmonic_sum(spectrum, 1), 1)[bin_of_f0]
        summed8 = summed_snr(harmonic_sum(spectrum, 8), 8)[bin_of_f0]
        assert summed8 > single

    def test_harmonic_sum_shapes(self):
        spectrum = np.ones(100)
        assert len(harmonic_sum(spectrum, 1)) == 100
        assert len(harmonic_sum(spectrum, 4)) == 25
        assert harmonic_sum(spectrum, 4)[0] == pytest.approx(4.0)
        with pytest.raises(SearchError):
            harmonic_sum(spectrum, 0)
        with pytest.raises(SearchError):
            harmonic_sum(np.ones(3), 4)

    def test_threshold_controls_false_alarms(self):
        rng = np.random.default_rng(1)
        noise = rng.normal(size=8192)
        strict = search_spectrum(noise, 0.0005, 0.0, snr_threshold=8.0)
        loose = search_spectrum(noise, 0.0005, 0.0, snr_threshold=3.0)
        assert len(strict) < len(loose)
        assert len(strict) <= 2

    def test_search_dm_block_validates_shape(self):
        with pytest.raises(SearchError):
            search_dm_block(np.zeros((3, 64)), [0.0, 1.0], 0.001)

    def test_short_series_rejected(self):
        with pytest.raises(SearchError):
            power_spectrum(np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_rejected(self, bad):
        """Was: an all-NaN spectrum, so zero candidates and no error."""
        block = np.random.default_rng(4).normal(size=(3, 256))
        block[1, 100] = bad
        with pytest.raises(SearchError, match="degenerate spectrum"):
            power_spectrum(block[1])
        with pytest.raises(SearchError, match="degenerate spectrum"):
            search_spectrum(block[1], 0.001, 0.0)
        with pytest.raises(SearchError, match="degenerate spectrum"):
            search_dm_block(block, [0.0, 1.0, 2.0], 0.001)

    @pytest.mark.parametrize("tsamp_s", [np.nan, np.inf])
    def test_search_spectrum_rejects_non_finite_sampling_time(self, tsamp_s):
        """Was: NaN passed ``tsamp_s <= 0`` and every frequency came out NaN."""
        series = np.random.default_rng(5).normal(size=256)
        with pytest.raises(SearchError, match="sampling time must be positive"):
            search_spectrum(series, tsamp_s, 0.0, snr_threshold=0.0, min_freq_hz=0.0)

    @pytest.mark.parametrize("tsamp_s", [np.nan, np.inf])
    def test_search_dm_block_rejects_non_finite_sampling_time(self, tsamp_s):
        """Was: NaN candidates (``NaN < min_freq_hz`` is false) or, at inf,
        every frequency 0 and every candidate dropped without an error."""
        block = np.random.default_rng(6).normal(size=(3, 256))
        with pytest.raises(SearchError, match="sampling time must be positive"):
            search_dm_block(block, [0.0, 1.0, 2.0], tsamp_s, snr_threshold=0.0)


class TestFolding:
    def test_fold_concentrates_pulse(self, pulsar_beam):
        series = dedisperse(pulsar_beam, 50.0)
        profile = fold(series, pulsar_beam.tsamp_s, 0.1)
        assert profile.snr() > 8

    def test_wrong_period_washes_out(self, pulsar_beam):
        series = dedisperse(pulsar_beam, 50.0)
        right = fold(series, pulsar_beam.tsamp_s, 0.1).snr()
        wrong = fold(series, pulsar_beam.tsamp_s, 0.0833).snr()
        assert right > 2 * wrong

    def test_refine_period_improves_or_holds(self, pulsar_beam):
        series = dedisperse(pulsar_beam, 50.0)
        seeded = fold(series, pulsar_beam.tsamp_s, 0.1002).snr()
        best_period, best_snr = refine_period(series, pulsar_beam.tsamp_s, 0.1002)
        assert best_snr >= seeded
        assert best_period == pytest.approx(0.1, rel=0.005)

    def test_fold_validation(self):
        with pytest.raises(SearchError):
            fold(np.zeros(8), 0.001, 0.1, n_bins=32)
        with pytest.raises(SearchError):
            fold(np.zeros(100), 0.001, -0.1)


class TestAccelerationSearch:
    @pytest.fixture(scope="class")
    def binary_series(self):
        pulsar = Pulsar("BIN", period_s=0.05, dm=40.0, snr=15.0, accel_ms2=20.0)
        beams = ObservationSimulator(SMALL_CONFIG).observe(
            single_pulsar_pointing(pulsar, beam=0), seed=2
        )
        return dedisperse(beams[0], 40.0), beams[0].tsamp_s

    def test_plain_search_misses_binary(self, binary_series):
        series, tsamp = binary_series
        candidates = search_spectrum(series, tsamp, 40.0, snr_threshold=6.0)
        near_truth = [c for c in candidates if abs(c.freq_hz - 20.0) < 0.5]
        strong = [c for c in near_truth if c.snr > 12]
        assert not strong, "drifting signal should be badly smeared"

    def test_accel_search_recovers_binary(self, binary_series):
        series, tsamp = binary_series
        trials = acceleration_trials(25.0, 11)
        candidates = accel_search(series, tsamp, 40.0, trials, snr_threshold=6.0)
        best = candidates[0]
        assert best.freq_hz == pytest.approx(20.0, rel=0.05)
        assert best.snr > 15
        assert best.accel_ms2 != 0.0

    def test_trial_grid(self):
        trials = acceleration_trials(20.0, 5)
        assert 0.0 in trials
        assert min(trials) == -20.0 and max(trials) == 20.0
        assert acceleration_trials(0.0, 5) == [0.0]
        assert acceleration_trials(20.0, 1) == [0.0]
        with pytest.raises(SearchError):
            acceleration_trials(-1.0, 5)

    def test_zero_trial_is_identity(self):
        rng = np.random.default_rng(0)
        series = rng.normal(size=1024)
        resampled = resample_for_acceleration(series, 0.001, 0.0)
        assert np.allclose(resampled, series)

    def test_accel_search_needs_trials(self):
        with pytest.raises(SearchError):
            accel_search(np.zeros(1024), 0.001, 0.0, [])


class TestSinglePulse:
    @pytest.fixture(scope="class")
    def transient_series(self):
        from repro.arecibo.sky import N_BEAMS, Pointing

        transient = Transient("T", time_s=0.5, dm=30.0, snr=20.0)
        pointing = Pointing(
            0,
            tuple(() for _ in range(N_BEAMS)),
            tuple((transient,) if i == 1 else () for i in range(N_BEAMS)),
            (),
        )
        beams = ObservationSimulator(SMALL_CONFIG).observe(pointing, seed=4)
        return beams[1], transient

    def test_detects_dispersed_transient(self, transient_series):
        filterbank, transient = transient_series
        series = dedisperse(filterbank, transient.dm)
        events = search_single_pulses(series, filterbank.tsamp_s, transient.dm)
        assert events, "bright transient must be detected"
        expected_time = transient.time_s * filterbank.duration.seconds
        assert events[0].time_s == pytest.approx(expected_time, abs=0.05)

    def test_clustering_collapses_widths(self, transient_series):
        filterbank, transient = transient_series
        series = dedisperse(filterbank, transient.dm)
        events = search_single_pulses(series, filterbank.tsamp_s, transient.dm)
        expected_time = transient.time_s * filterbank.duration.seconds
        near = [e for e in events if abs(e.time_s - expected_time) < 0.05]
        assert len(near) == 1

    def test_noise_false_alarm_rate_low(self):
        rng = np.random.default_rng(3)
        events = search_single_pulses(rng.normal(size=8192), 0.0005, 0.0)
        assert len(events) <= 2


class TestSifting:
    def make_candidate(self, freq, snr, dm, beam=0):
        return FourierCandidate(
            freq_hz=freq, period_s=1.0 / freq, snr=snr, n_harmonics=1, dm=dm, beam=beam
        )

    def test_collapses_dm_duplicates(self):
        candidates = [self.make_candidate(10.0, 10 + i / 10, dm=float(i)) for i in range(20)]
        sifted = sift(candidates)
        assert len(sifted) == 1
        assert sifted[0].n_dm_hits == 20
        assert sifted[0].snr == pytest.approx(11.9)

    def test_rejects_harmonics_of_stronger_signal(self):
        fundamental = self.make_candidate(10.0, 20.0, dm=50.0)
        second = self.make_candidate(20.0, 12.0, dm=50.0)
        unrelated = self.make_candidate(13.7, 9.0, dm=20.0)
        sifted = sift([fundamental, second, unrelated])
        freqs = sorted(round(c.freq_hz, 1) for c in sifted)
        assert freqs == [10.0, 13.7]

    def test_keeps_harmonics_when_disabled(self):
        fundamental = self.make_candidate(10.0, 20.0, dm=50.0)
        second = self.make_candidate(20.0, 12.0, dm=50.0)
        sifted = sift([fundamental, second], reject_harmonics=False)
        assert len(sifted) == 2

    def test_match_to_truth_accepts_harmonic_recovery(self):
        detection_at_2f = sift([self.make_candidate(20.0, 12.0, dm=50.0)])
        assert match_to_truth(detection_at_2f, true_period_s=0.1) is not None
        assert match_to_truth(detection_at_2f, true_period_s=0.013) is None

    def test_sift_validation(self):
        with pytest.raises(SearchError):
            sift([], freq_tolerance=0.0)

    @given(
        # Coarse grids: many candidates tie on S/N (the stable sort keeps
        # their input order) and on frequency, and 0.5 % steps put several
        # leaders within one tolerance of a candidate — first match wins.
        picks=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 8), st.integers(0, 5)),
            max_size=60,
        ),
        freq_tolerance=st.sampled_from([0.001, 0.01, 0.05]),
    )
    @settings(max_examples=200, deadline=None)
    def test_grouping_equals_pairwise_leader_comparison(self, picks, freq_tolerance):
        candidates = [
            self.make_candidate(50.0 * 1.005**step, 6.0 + snr / 2.0, dm=0.5 * dm)
            for step, snr, dm in picks
        ]
        # sift's grouping as a comparison of candidate objects, pair by pair.
        groups = []
        for candidate in sorted(candidates, key=lambda c: -c.snr):
            for group in groups:
                a, b = group[0], candidate
                if abs(a.freq_hz - b.freq_hz) <= freq_tolerance * max(a.freq_hz, b.freq_hz):
                    group.append(candidate)
                    break
            else:
                groups.append([candidate])
        expected = [
            (
                group[0].freq_hz, group[0].snr, group[0].dm,
                len({round(member.dm, 3) for member in group}),
                max((m.snr for m in group if m.dm <= 1.0), default=0.0),
            )
            for group in groups
        ]
        sifted = sift(candidates, freq_tolerance, reject_harmonics=False)
        assert [
            (c.freq_hz, c.snr, c.dm, c.n_dm_hits, c.snr_dm0) for c in sifted
        ] == expected

    def test_dispersed_flag(self):
        dispersed = sift([self.make_candidate(10.0, 10.0, dm=30.0)])[0]
        local = sift([self.make_candidate(11.0, 10.0, dm=0.0)])[0]
        # Sifting keeps each signal's best DM: the dispersed one peaks
        # clearly above DM 0, the local one at it.
        assert dispersed.dm == 30.0
        assert local.dm == 0.0
