"""Equivalence and error-path tests for the batched numeric kernels.

Every assertion here is exact (``np.array_equal``, not ``allclose``): the
kernels' contract is bitwise equality with the naive loops they replace.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.errors import KernelError
from repro.core.kernels import (
    SHIFT_SUM_TILE_BYTES,
    batched_power_spectra,
    fold_block,
    harmonic_snr_block,
    index_postings,
    row_medians,
    run_tiles,
    shift_sum,
    threshold_hits,
)


class TileFailure(Exception):
    pass


class Interrupt(BaseException):
    pass


class TestRunTiles:
    @pytest.mark.parametrize("n_tiles", [0, 1, 2, 7, 40])
    def test_results_in_tile_order(self, kernel_threads, n_tiles):
        def tile(index):
            time.sleep(0.001 * (index % 3))  # finish out of order
            return index * index

        assert run_tiles(tile, n_tiles) == [i * i for i in range(n_tiles)]

    def test_each_tile_runs_once(self, kernel_threads):
        seen = []
        run_tiles(seen.append, 50)
        assert sorted(seen) == list(range(50))

    def test_stress_with_a_short_switch_interval(self, monkeypatch):
        """More threads than cores, switching every microsecond: a tile
        claimed twice or a result lost would break the equalities."""
        monkeypatch.setattr(kernels, "KERNEL_THREADS", 8)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                seen = []

                def tile(index):
                    seen.append(index)
                    return -index

                assert run_tiles(tile, 500) == [-i for i in range(500)]
                assert sorted(seen) == list(range(500))
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before

    def test_lowest_failing_tile_wins(self, kernel_threads):
        """Tile 5 fails first in time; the serial loop would have stopped
        on tile 2, so tile 2's error is the one raised."""
        def tile(index):
            if index == 2:
                time.sleep(0.05)
                raise TileFailure("tile 2")
            if index == 5:
                raise TileFailure("tile 5")
            return index

        for _ in range(5):
            with pytest.raises(TileFailure, match="tile 2"):
                run_tiles(tile, 8)

    def test_no_tile_starts_after_a_failure(self, kernel_threads):
        started = []

        def tile(index):
            started.append(index)
            if index == 0:
                raise TileFailure("tile 0")
            time.sleep(0.05)

        with pytest.raises(TileFailure, match="tile 0"):
            run_tiles(tile, 100)
        if kernel_threads == 1:
            assert started == [0]
        else:  # each other thread finishes the one tile it holds, then stops
            assert len(started) <= 2 * kernel_threads

    def test_base_exception_in_a_helper_reaches_the_caller(self, monkeypatch):
        """Both tiles wait for each other, so each runs on its own thread;
        the helper's tile raises a BaseException."""
        monkeypatch.setattr(kernels, "KERNEL_THREADS", 2)
        before = threading.active_count()
        both_running = threading.Barrier(2, timeout=10.0)

        def tile(index):
            both_running.wait()
            if threading.current_thread() is not threading.main_thread():
                raise Interrupt(index)
            return index

        with pytest.raises(Interrupt):
            run_tiles(tile, 2)
        assert threading.active_count() == before

    def test_one_thread_runs_every_tile_on_the_caller(self, monkeypatch):
        monkeypatch.setattr(kernels, "KERNEL_THREADS", 1)
        callers = set()
        run_tiles(lambda index: callers.add(threading.get_ident()), 9)
        assert callers == {threading.get_ident()}

    def test_kernel_threads_is_the_cpus_this_process_may_use(self):
        if hasattr(os, "sched_getaffinity"):
            assert kernels.KERNEL_THREADS == len(os.sched_getaffinity(0))
        assert kernels.KERNEL_THREADS >= 1


def shift_sum_reference(data, shifts):
    """The naive per-trial ``np.roll`` loop :func:`shift_sum` replaces:
    a float64 sum over channels, divided by their count, cast to float32."""
    out = np.zeros((shifts.shape[0], data.shape[1]), dtype=np.float64)
    for trial in range(shifts.shape[0]):
        for channel in range(data.shape[0]):
            out[trial] += np.roll(data[channel], -int(shifts[trial, channel]))
    return (out / data.shape[0]).astype(np.float32)


class TestShiftSum:
    def test_matches_reference_randomized(self):
        rng = np.random.default_rng(0)
        for n_channels, n_samples, n_trials in [(4, 64, 7), (16, 100, 3), (1, 33, 5)]:
            data = rng.normal(size=(n_channels, n_samples))
            shifts = rng.integers(0, n_samples, size=(n_trials, n_channels))
            assert np.array_equal(
                shift_sum(data, shifts), shift_sum_reference(data, shifts)
            )

    def test_wraparound_shifts(self):
        """Shifts beyond n_samples (and negative) wrap exactly like np.roll."""
        rng = np.random.default_rng(1)
        data = rng.normal(size=(3, 50))
        shifts = np.array([[0, 49, 50], [51, 123, -7], [-50, 99, 1]])
        assert np.array_equal(
            shift_sum(data, shifts), shift_sum_reference(data, shifts)
        )

    @pytest.mark.parametrize("dtype", [np.int16, np.float32, np.float64])
    def test_every_tile_split_matches_reference(self, dtype):
        """Trial counts around the tile size: a lone trial, a short last
        tile, exact multiples, and one row spilling into a new tile."""
        n_channels, n_samples = 3, 2048
        tile_rows = SHIFT_SUM_TILE_BYTES // (n_samples * 8)
        assert tile_rows > 1
        rng = np.random.default_rng(12)
        data = (100.0 * rng.normal(size=(n_channels, n_samples))).astype(dtype)
        for n_trials in (1, tile_rows - 1, tile_rows, tile_rows + 1, 2 * tile_rows + 1):
            shifts = rng.integers(
                -2 * n_samples, 3 * n_samples, size=(n_trials, n_channels)
            )
            assert (shifts < 0).any() and (shifts >= n_samples).any()
            batched = shift_sum(data, shifts)
            assert batched.dtype == np.float32
            assert np.array_equal(batched, shift_sum_reference(data, shifts))

    def test_any_thread_count_matches_reference(self, kernel_threads):
        """Tiles spread over 1-8 threads: every row is still one thread's
        channel-ordered sum."""
        n_channels, n_samples = 5, 4096
        tile_rows = SHIFT_SUM_TILE_BYTES // (n_samples * 8)
        rng = np.random.default_rng(17)
        data = rng.normal(size=(n_channels, n_samples)).astype(np.float32)
        for n_trials in (1, tile_rows - 1, tile_rows, tile_rows + 1, 124):
            shifts = rng.integers(-n_samples, 2 * n_samples, size=(n_trials, n_channels))
            assert np.array_equal(
                shift_sum(data, shifts), shift_sum_reference(data, shifts)
            )

    def test_rows_wider_than_a_tile_match_reference(self):
        n_samples = SHIFT_SUM_TILE_BYTES // 8 + 5  # one row overflows the tile
        rng = np.random.default_rng(13)
        data = rng.normal(size=(2, n_samples)).astype(np.float32)
        shifts = rng.integers(0, n_samples, size=(3, 2))
        assert np.array_equal(
            shift_sum(data, shifts), shift_sum_reference(data, shifts)
        )

    def test_rejects_non_integer_shifts(self):
        """Was: a bare IndexError from the gather."""
        data = np.arange(12.0).reshape(3, 4)
        with pytest.raises(KernelError, match="float64"):
            shift_sum(data, np.array([[0.0, 1.5, 2.0]]))
        with pytest.raises(KernelError, match="bool"):
            shift_sum(data, np.zeros((1, 3), dtype=bool))

    def test_zero_shift_is_plain_sum(self):
        """The channels summed unshifted, then averaged and cast like any row."""
        data = np.arange(12.0).reshape(3, 4)
        shifts = np.zeros((1, 3), dtype=np.int64)
        assert np.array_equal(
            shift_sum(data, shifts)[0], (data.sum(axis=0) / 3).astype(np.float32)
        )

    def test_rejects_bad_shapes(self):
        with pytest.raises(KernelError):
            shift_sum(np.zeros(5), np.zeros((1, 5), dtype=int))
        with pytest.raises(KernelError):
            shift_sum(np.zeros((2, 5)), np.zeros((1, 3), dtype=int))
        with pytest.raises(KernelError):
            shift_sum(np.zeros((2, 0)), np.zeros((1, 2), dtype=int))


@st.composite
def float_blocks(draw):
    """A 2-D float block as the search paths pass it: odd, even and 1-2
    column widths, float32 or float64, often a strided view, tied values,
    and now and then a NaN or an infinity in a row."""
    n_rows = draw(st.integers(1, 5))
    n_columns = draw(st.sampled_from([1, 2, 3, 4, 7, 16, 33, 64, 129]))
    stride = draw(st.integers(1, 3))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parent = rng.normal(size=(n_rows * stride, n_columns))
    if draw(st.booleans()):
        parent = np.round(parent * 2.0) / 2.0  # ties around the middle
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.integers(0, n_rows * stride - 1))
        column = draw(st.integers(0, n_columns - 1))
        parent[row, column:] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        if draw(st.booleans()):
            rng.shuffle(parent[row])
    return parent.astype(dtype)[::stride]


class TestRowMedians:
    @given(block=float_blocks(), overwrite_input=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_np_median(self, block, overwrite_input):
        with np.errstate(invalid="ignore"):  # (-inf + inf) / 2 in both
            expected = np.median(block, axis=1)
            before = block.copy()
            medians = row_medians(block, overwrite_input=overwrite_input)
        assert medians.dtype == expected.dtype
        assert np.array_equal(medians, expected, equal_nan=True)
        assert np.array_equal(np.signbit(medians), np.signbit(expected))
        if overwrite_input:
            assert np.array_equal(
                np.sort(block, axis=1), np.sort(before, axis=1), equal_nan=True
            )
        else:
            assert np.array_equal(block, before, equal_nan=True)

    def test_pipeline_sized_block(self):
        """Wide rows take numpy's introselect path, not its small-n sort."""
        rng = np.random.default_rng(14)
        for width in (2047, 2048):
            block = rng.exponential(size=(9, width))
            assert np.array_equal(row_medians(block), np.median(block, axis=1))

    def test_rejects_bad_input(self):
        with pytest.raises(KernelError):
            row_medians(np.zeros(4))
        with pytest.raises(KernelError):
            row_medians(np.zeros((2, 0)))


class TestBatchedSpectra:
    def test_rows_match_single_spectra(self):
        from repro.arecibo.fourier import power_spectrum

        rng = np.random.default_rng(2)
        for width in (256, 255):  # odd and even spectrum lengths
            block = rng.normal(size=(6, width))
            spectra = batched_power_spectra(block)
            for row in range(block.shape[0]):
                assert np.array_equal(spectra[row], power_spectrum(block[row]))

    def test_rejects_short_or_1d_input(self):
        with pytest.raises(KernelError):
            batched_power_spectra(np.zeros(64))
        with pytest.raises(KernelError):
            batched_power_spectra(np.zeros((2, 8)))

    def test_rejects_degenerate_rows(self):
        block = np.ones((2, 64))  # zero variance -> zero median power
        with pytest.raises(KernelError):
            batched_power_spectra(block)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_sample(self, bad):
        """Was: an all-NaN spectrum row returned, which no threshold test
        ever fires on — the trial searched nothing and said nothing."""
        block = np.random.default_rng(15).normal(size=(3, 64))
        block[1, 17] = bad
        with pytest.raises(KernelError, match="degenerate spectrum"):
            batched_power_spectra(block)


class TestHarmonicBlock:
    @given(
        n_rows=st.integers(1, 4),
        n_bins=st.integers(1, 70),
        ladder=st.lists(st.integers(1, 20), min_size=0, max_size=6),
        drop_dc=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_depth_matches_single_ladder(
        self, n_rows, n_bins, ladder, drop_dc, seed
    ):
        """Any ladder — ascending, descending, repeated depths — over
        contiguous spectra and over the ``[:, 1:]`` view the search passes."""
        from repro.arecibo.fourier import harmonic_sum, summed_snr

        rng = np.random.default_rng(seed)
        spectra = rng.exponential(size=(n_rows, n_bins + drop_dc))[:, int(drop_dc):]
        ladder = [n for n in ladder if n <= n_bins]
        before = spectra.copy()
        blocks = list(harmonic_snr_block(spectra, ladder))
        assert [n_harmonics for n_harmonics, _ in blocks] == ladder
        for n_harmonics, block_snrs in blocks:
            assert block_snrs.shape == (n_rows, n_bins // n_harmonics)
            for row in range(n_rows):
                expected = summed_snr(
                    harmonic_sum(spectra[row], n_harmonics), n_harmonics
                )
                assert np.array_equal(block_snrs[row], expected)
        assert np.array_equal(spectra, before)

    def test_matches_single_ladder(self):
        """The default ladder at the pipeline's width, each depth consumed
        before the next is computed (the way ``search_dm_block`` iterates)."""
        from repro.arecibo.fourier import DEFAULT_HARMONICS, harmonic_sum, summed_snr

        rng = np.random.default_rng(3)
        spectra = rng.exponential(size=(5, 2048))
        depths = []
        for n_harmonics, block_snrs in harmonic_snr_block(spectra, DEFAULT_HARMONICS):
            depths.append(n_harmonics)
            for row in range(spectra.shape[0]):
                expected = summed_snr(
                    harmonic_sum(spectra[row], n_harmonics), n_harmonics
                )
                assert np.array_equal(block_snrs[row], expected)
        assert tuple(depths) == DEFAULT_HARMONICS

    def test_rejects_bad_ladder(self):
        with pytest.raises(KernelError):
            list(harmonic_snr_block(np.zeros((2, 8)), (0,)))
        with pytest.raises(KernelError):
            list(harmonic_snr_block(np.zeros((2, 8)), (1, 9)))
        with pytest.raises(KernelError):
            list(harmonic_snr_block(np.zeros(8), (2,)))


class TestThresholdHits:
    def test_groups_rows_in_bin_order(self):
        snrs = np.array([[1.0, 5.0, 3.0], [0.0, 0.0, 0.0], [9.0, 2.0, 4.0]])
        rows, bins, values = threshold_hits(snrs, 3.0)
        assert rows.tolist() == [0, 0, 2, 2]
        assert bins.tolist() == [1, 2, 0, 2]
        assert values.tolist() == [5.0, 3.0, 9.0, 4.0]

    def test_matches_flatnonzero_per_row(self):
        rng = np.random.default_rng(4)
        snrs = rng.normal(size=(10, 40))
        rows, bins, values = threshold_hits(snrs, 0.5)
        assert np.all(np.diff(rows) >= 0)
        for row in range(len(snrs)):
            expected = np.flatnonzero(snrs[row] >= 0.5)
            assert np.array_equal(bins[rows == row], expected)
            assert np.array_equal(values[rows == row], snrs[row][expected])

    def test_rejects_1d(self):
        with pytest.raises(KernelError):
            threshold_hits(np.zeros(4), 1.0)


class TestFoldBlock:
    def test_matches_per_trial_fold(self):
        from repro.arecibo.folding import fold

        rng = np.random.default_rng(5)
        series = rng.normal(size=2048)
        tsamp = 1e-3
        periods = np.array([0.05, 0.0731, 0.11, 0.251])
        profiles, hits = fold_block(series, tsamp, periods, 32)
        for row, period in enumerate(periods):
            single = fold(series, tsamp, float(period), n_bins=32)
            assert np.array_equal(profiles[row], single.profile)
            assert np.array_equal(hits[row], single.hits)

    def test_rejects_bad_inputs(self):
        with pytest.raises(KernelError):
            fold_block(np.zeros((2, 4)), 1e-3, np.array([0.1]), 8)
        with pytest.raises(KernelError):
            fold_block(np.zeros(16), 1e-3, np.array([0.1]), 0)
        with pytest.raises(KernelError):
            fold_block(np.zeros(16), 0.0, np.array([0.1]), 8)
        with pytest.raises(KernelError):
            fold_block(np.zeros(16), 1e-3, np.array([-0.1]), 8)


class TestIndexPostings:
    def test_matches_incremental_build(self):
        docs = [
            ("u1", ["alpha", "beta", "alpha"]),
            ("u2", ["beta", "gamma"]),
            ("u3", []),
        ]
        postings, lengths, terms = index_postings(docs)
        assert postings == {"alpha": {"u1": 2}, "beta": {"u1": 1, "u2": 1},
                            "gamma": {"u2": 1}}
        assert lengths == {"u1": 3, "u2": 2, "u3": 0}
        assert terms == {"u1": ("alpha", "beta"), "u2": ("beta", "gamma"), "u3": ()}

    def test_later_duplicate_url_wins(self):
        postings, lengths, terms = index_postings(
            [("u", ["old", "stale"]), ("u", ["fresh"])]
        )
        assert postings == {"fresh": {"u": 1}}
        assert lengths == {"u": 1}
        assert terms == {"u": ("fresh",)}
