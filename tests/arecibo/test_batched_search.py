"""Batched search paths vs their retained naive references.

The production pipeline runs the batched kernels; these tests hold them
bitwise-equal to the per-trial loops across the awkward regimes — DM
delays that wrap past the observation length, harmonic ladders truncated
by short spectra, and fold periods short enough to shrink the bin count.
"""

import contextlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arecibo import fourier
from repro.arecibo.dedisperse import (
    DMGrid,
    dedisperse_all,
    dedisperse_all_reference,
    delay_matrix,
    delay_samples,
)
from repro.arecibo.folding import fold, fold_many, refine_period, refine_period_reference
from repro.arecibo.fourier import (
    DEFAULT_HARMONICS,
    search_dm_block,
    search_dm_block_reference,
)
from repro.arecibo.sky import Pulsar
from repro.arecibo.telescope import ObservationConfig, ObservationSimulator
from repro.core.errors import SearchError

from tests.arecibo.conftest import SMALL_CONFIG, single_pulsar_pointing


def small_filterbank(seed=9, config=SMALL_CONFIG):
    simulator = ObservationSimulator(config)
    pointing = single_pulsar_pointing(
        Pulsar(name="PSR_EQ", period_s=0.08, dm=40.0, snr=12.0, duty_cycle=0.05),
        beam=2,
    )
    return simulator.observe(pointing, seed=seed)[2]


class TestDelayMatrix:
    def test_rows_match_per_trial_delays(self):
        filterbank = small_filterbank()
        grid = DMGrid.linear(0.0, 120.0, 37)
        matrix = delay_matrix(filterbank, grid.trials)
        for row, dm in enumerate(grid.trials):
            assert np.array_equal(matrix[row], delay_samples(filterbank, dm))

    def test_rejects_negative_and_2d_trials(self):
        filterbank = small_filterbank()
        with pytest.raises(SearchError):
            delay_matrix(filterbank, [-1.0])
        with pytest.raises(SearchError):
            delay_matrix(filterbank, np.zeros((2, 2)))


class TestBatchedDedispersion:
    def test_matches_reference(self):
        filterbank = small_filterbank()
        grid = DMGrid.matched(filterbank, 100.0)
        assert np.array_equal(
            dedisperse_all(filterbank, grid),
            dedisperse_all_reference(filterbank, grid),
        )

    def test_matches_reference_with_wraparound(self):
        """DMs large enough that channel delays exceed the observation."""
        config = ObservationConfig(n_channels=32, n_samples=512)
        filterbank = small_filterbank(seed=4, config=config)
        grid = DMGrid.linear(0.0, 2000.0, 24)
        assert delay_matrix(filterbank, grid.trials).max() > config.n_samples
        assert np.array_equal(
            dedisperse_all(filterbank, grid),
            dedisperse_all_reference(filterbank, grid),
        )


TILE_TRIAL_COUNTS = (1, 15, 16, 17, 124)  # around the 16-row tiles, and Figure 1's grid


@pytest.fixture(scope="module")
def tiled_filterbank():
    """4 096 samples, so a shift_sum tile is 16 trials, like a search tile."""
    return small_filterbank(seed=5, config=ObservationConfig(n_channels=16, n_samples=4096))


class TestTiledSearch:
    """Both tiled paths equal their oracles at any thread count, across
    tile boundaries; ``kernel_threads`` also checks no thread outlives them."""

    @pytest.mark.parametrize("n_trials", TILE_TRIAL_COUNTS)
    def test_dedisperse_all(self, kernel_threads, tiled_filterbank, n_trials):
        grid = DMGrid.linear(0.0, 300.0, n_trials)
        assert np.array_equal(
            dedisperse_all(tiled_filterbank, grid),
            dedisperse_all_reference(tiled_filterbank, grid),
        )

    @pytest.mark.parametrize("n_trials", TILE_TRIAL_COUNTS)
    def test_search_dm_block(self, kernel_threads, tiled_filterbank, n_trials):
        grid = DMGrid.linear(0.0, 300.0, n_trials)
        block = dedisperse_all(tiled_filterbank, grid)
        kwargs = dict(snr_threshold=3.0, pointing_id=4, beam=2)
        found = search_dm_block(block, grid.trials, tiled_filterbank.tsamp_s, **kwargs)
        assert found
        assert found == search_dm_block_reference(
            block, grid.trials, tiled_filterbank.tsamp_s, **kwargs
        )

    def test_degenerate_row_in_a_later_tile(self, kernel_threads):
        """The error of the tile holding the bad row, as a SearchError."""
        block = np.random.default_rng(18).normal(size=(40, 256))
        block[37, 3] = np.nan
        with pytest.raises(SearchError, match="degenerate spectrum"):
            search_dm_block(block, tuple(range(40)), 1e-3)

    def test_farm_workers_forked_after_a_tiled_call(self, tmp_path):
        """The parent runs tiled kernels on helper threads, then forks a
        process farm whose workers run them too; every helper was joined
        before the fork, so nothing a worker inherits is held.  In a child
        interpreter with a timeout, so a hang fails instead of wedging."""
        script = tmp_path / "fork_after_tiles.py"
        script.write_text(
            textwrap.dedent(
                """
                import functools
                import numpy as np
                from repro.arecibo.dedisperse import DMGrid, dedisperse_all
                from repro.arecibo.sky import Pointing
                from repro.arecibo.telescope import ObservationConfig, ObservationSimulator
                from repro.core import kernels
                from repro.core.shards import ShardPool

                if __name__ == "__main__":
                    kernels.KERNEL_THREADS = 2
                    config = ObservationConfig(n_channels=16, n_samples=4096)
                    pointing = Pointing(
                        pointing_id=0, pulsars_by_beam=((),) * 7,
                        transients_by_beam=((),) * 7, rfi=(),
                    )
                    beams = ObservationSimulator(config).observe(pointing, seed=3)[:4]
                    grid = DMGrid.linear(0.0, 300.0, 40)
                    serial = [dedisperse_all(beam, grid) for beam in beams]
                    with ShardPool(2) as pool:
                        farmed = pool.map(functools.partial(dedisperse_all, grid=grid), beams)
                    assert all(np.array_equal(a, b) for a, b in zip(serial, farmed))
                    print("same", len(farmed))
                """
            ),
            encoding="utf-8",
        )
        src = Path(__file__).resolve().parents[2] / "src"
        completed = subprocess.run(
            [sys.executable, str(script)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert completed.stdout.strip() == "same 4"


class TestNearestTrial:
    def test_matches_linear_scan(self):
        grid = DMGrid.linear(0.0, 100.0, 41)
        rng = np.random.default_rng(6)
        probes = list(rng.uniform(-10.0, 110.0, size=100)) + list(grid.trials)
        for dm in probes:
            expected = min(grid.trials, key=lambda trial: abs(trial - dm))
            assert grid.nearest_trial(float(dm)) == expected

    def test_tie_goes_to_lower_trial(self):
        grid = DMGrid(trials=(0.0, 1.0, 2.0))
        assert grid.nearest_trial(0.5) == 0.0
        assert grid.nearest_trial(1.5) == 1.0


class TestBatchedSpectrumSearch:
    def test_matches_reference(self):
        rng = np.random.default_rng(7)
        block = rng.normal(size=(12, 1024))
        trials = tuple(np.linspace(0.0, 60.0, 12).tolist())
        assert search_dm_block(block, trials, 1e-3, snr_threshold=3.0) == \
            search_dm_block_reference(block, trials, 1e-3, snr_threshold=3.0)

    def test_matches_reference_truncated_ladder(self):
        """Harmonic depths exceeding the spectrum length are skipped in
        both paths."""
        rng = np.random.default_rng(8)
        block = rng.normal(size=(4, 64))
        trials = (0.0, 10.0, 20.0, 30.0)
        kwargs = dict(
            snr_threshold=2.5, harmonics=(1, 2, 4, 8, 16, 64), min_freq_hz=0.0
        )
        assert search_dm_block(block, trials, 1e-2, **kwargs) == \
            search_dm_block_reference(block, trials, 1e-2, **kwargs)

    def test_matches_reference_odd_ladder(self):
        rng = np.random.default_rng(9)
        block = rng.normal(size=(3, 256))
        trials = (0.0, 5.0, 15.0)
        kwargs = dict(snr_threshold=3.0, harmonics=(1, 3, 5))
        assert search_dm_block(block, trials, 1e-3, **kwargs) == \
            search_dm_block_reference(block, trials, 1e-3, **kwargs)

    @pytest.mark.parametrize(
        "harmonics", [(16, 1), (2, 2), (3, 5), (1,), (4, 2, 8, 8, 1, 16), ()]
    )
    @pytest.mark.parametrize("n_samples", [1024, 40])
    def test_matches_reference_any_ladder(self, harmonics, n_samples):
        """Descending, repeated and non-doubling ladders, and (40 samples:
        20 bins) a spectrum shorter than 16 folds of itself.  The low
        threshold makes most bins hit at several depths, so the strict-``>``
        update and the insertion order both show in the list."""
        rng = np.random.default_rng(16)
        block = np.round(rng.normal(size=(5, n_samples)) * 4.0) / 4.0
        trials = (0.0, 5.0, 10.0, 15.0, 20.0)
        kwargs = dict(snr_threshold=0.5, harmonics=harmonics, min_freq_hz=0.0)
        found = search_dm_block(block, trials, 1e-3, **kwargs)
        assert found == search_dm_block_reference(block, trials, 1e-3, **kwargs)
        assert bool(found) == bool(harmonics)

    def test_rejects_mismatched_rows(self):
        with pytest.raises(SearchError):
            search_dm_block(np.zeros((2, 64)), (0.0,), 1e-3)


@contextlib.contextmanager
def block_is_its_spectrum():
    """Both search paths read each row as its own normalized spectrum, so a
    test can pick exact powers — and with them exact S/N ties."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fourier, "power_spectrum", lambda series: np.array(series, dtype=float))
        patch.setattr(fourier, "batched_power_spectra", lambda rows: np.array(rows, dtype=float))
        yield


class TestTieRules:
    """The two tie rules of the reference's per-bin ``best`` dict, which
    the block search keeps as arrays: a bin keeps the *first* depth that
    reached its best S/N (the update is strictly ``>``), and candidates of
    equal S/N keep the dict's insertion order — row, then the ladder step
    that first hit the bin, then bin."""

    def test_hand_built_ties(self):
        # Ladder (1, 4): S/N is P - 1 at depth 1 and (P_k + P_2k+1 + P_3k+2
        # + P_4k+3 - 4) / 2 at depth 4, exact in binary for these powers.
        # Bin 1: 2.0 at both depths, so it keeps depth 1.  Bin 0 misses
        # depth 1 and reaches 2.0 at depth 4: it ties with bin 1 but was
        # inserted after it (and after bins 2, 3, 7, all 1.0 at depth 1).
        row = [1.0, 3.0, 2.0, 2.0, 0.0, 1.0, 0.0, 2.0] + [0.0] * 8
        block = np.array([row, row])
        kwargs = dict(snr_threshold=1.0, harmonics=(1, 4), min_freq_hz=0.0)
        with block_is_its_spectrum():
            found = search_dm_block(block, (10.0, 20.0), 1e-3, **kwargs)
            assert found == search_dm_block_reference(block, (10.0, 20.0), 1e-3, **kwargs)
        total_time = block.shape[1] * 1e-3
        assert [
            (c.dm, round(c.freq_hz * total_time) - 1, c.n_harmonics, c.snr) for c in found
        ] == [
            (10.0, 1, 1, 2.0), (10.0, 0, 4, 2.0), (20.0, 1, 1, 2.0), (20.0, 0, 4, 2.0),
            (10.0, 2, 1, 1.0), (10.0, 3, 1, 1.0), (10.0, 7, 1, 1.0),
            (20.0, 2, 1, 1.0), (20.0, 3, 1, 1.0), (20.0, 7, 1, 1.0),
        ]

    @given(
        n_trials=st.sampled_from((1, 15, 16, 17, 33)),
        n_samples=st.sampled_from((32, 48, 64)),
        seed=st.integers(0, 2**32 - 1),
        spectral=st.booleans(),
        harmonics=st.sampled_from(
            [DEFAULT_HARMONICS, (16, 8, 4, 2, 1), (1, 2, 2, 4, 4), (4, 1, 4), (1,), ()]
        ),
        snr_threshold=st.sampled_from((-2.0, -0.5, 0.0, 0.5, 1.0, 3.0)),
        min_freq_hz=st.sampled_from((0.0, 1.0, 50.0)),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_block_search_equals_reference(
        self, kernel_threads, n_trials, n_samples, seed, spectral, harmonics,
        snr_threshold, min_freq_hz,
    ):
        """Values on a grid of halves: read as spectra they tie S/N across
        bins and across depths all the time; read as series, the FFT path
        at the same tile boundaries and thresholds down to -2."""
        rng = np.random.default_rng(seed)
        block = rng.integers(0, 7, size=(n_trials, n_samples)) / 2.0
        trials = tuple(float(trial) for trial in range(n_trials))
        kwargs = dict(
            snr_threshold=snr_threshold, harmonics=harmonics, min_freq_hz=min_freq_hz
        )
        with block_is_its_spectrum() if spectral else contextlib.nullcontext():
            try:
                expected = search_dm_block_reference(block, trials, 1e-3, **kwargs)
            except SearchError:
                with pytest.raises(SearchError, match="degenerate spectrum"):
                    search_dm_block(block, trials, 1e-3, **kwargs)
                return
            assert search_dm_block(block, trials, 1e-3, **kwargs) == expected


class TestBatchedFolding:
    def test_fold_many_matches_fold_loop(self):
        rng = np.random.default_rng(10)
        series = rng.normal(size=4096)
        tsamp = 1e-3
        # Includes periods short enough to trigger the n_bins shrink.
        periods = [0.25, 0.0931, 0.031, 0.003, 0.002]
        batched = fold_many(series, tsamp, periods, n_bins=32)
        for period, profile in zip(periods, batched):
            single = fold(series, tsamp, period, n_bins=32)
            assert profile.period_s == single.period_s
            assert profile.sample_std == single.sample_std
            assert np.array_equal(profile.profile, single.profile)
            assert np.array_equal(profile.hits, single.hits)

    def test_refine_period_matches_reference(self):
        rng = np.random.default_rng(11)
        period = 0.05
        times = np.arange(4096) * 1e-3
        series = rng.normal(size=4096) + 2.0 * (
            np.mod(times, period) < 0.1 * period
        )
        assert refine_period(series, 1e-3, period) == \
            refine_period_reference(series, 1e-3, period)

    def test_fold_many_rejects_bad_periods(self):
        with pytest.raises(SearchError):
            fold_many(np.zeros(128), 1e-3, [0.05, -0.1])
        with pytest.raises(SearchError):
            fold_many(np.zeros(8), 1e-3, [0.05], n_bins=32)
