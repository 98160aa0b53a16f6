"""The block single-pulse search vs a per-series, per-width ``boxcar_snr`` loop.

``search_single_pulses`` estimates each series' noise once and shares one
cumulative sum across the width ladder; its contract is that every row's
events equal — value for value, in order — what the per-width filter over
that row alone produces.  Equality here is exact, never approximate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arecibo.singlepulse import (
    DEFAULT_WIDTHS,
    SINGLE_PULSE_TILE_ROWS,
    search_single_pulses,
)
from repro.core.errors import SearchError

from tests.arecibo.conftest import boxcar_snr, per_series_single_pulse_search

TSAMP_S = 64e-6


@st.composite
def blocks(draw):
    """A block as the pipeline passes it: often a float32 strided view."""
    n_series = draw(st.integers(1, 5))
    # Below 32 samples the widest default boxcars drop off the ladder.
    n_samples = draw(st.integers(2, 160))
    stride = draw(st.integers(1, 3))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parent = rng.normal(size=(n_series * stride, n_samples))
    if draw(st.booleans()):
        # Coarse levels make many hits tie on S/N, so the order hits are
        # collected in (which the stable sort preserves) decides the result.
        parent = np.round(parent * 2.0) / 2.0
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(0, n_series * stride - 1))
        start = draw(st.integers(0, n_samples - 1))
        width = draw(st.integers(1, 40))
        parent[row, start : start + width] += draw(st.floats(2.0, 30.0))
    if draw(st.integers(0, 7)) == 0:
        parent[draw(st.integers(0, n_series - 1)) * stride] = draw(st.floats(-5.0, 5.0))
    return parent.astype(dtype)[::stride]


@given(
    block=blocks(),
    snr_threshold=st.floats(2.0, 8.0),
    # (16, 4, 1): descending, and sqrt(width) rational, so on coarse levels
    # hits of different widths tie on S/N and the ladder order shows.
    widths=st.sampled_from([DEFAULT_WIDTHS, (1,), (16, 4, 1), (64, 1, 5)]),
)
@settings(max_examples=200, deadline=None)
def test_block_search_equals_per_series_per_width_loop(block, snr_threshold, widths):
    dms = [2.5 * row for row in range(len(block))]
    try:
        expected = per_series_single_pulse_search(
            block, TSAMP_S, dms, snr_threshold, widths
        )
    except SearchError:
        # A zero-MAD row fails the whole block, as it failed its own series.
        with pytest.raises(SearchError, match="zero MAD"):
            search_single_pulses(block, TSAMP_S, dms, snr_threshold, widths)
        return
    assert search_single_pulses(block, TSAMP_S, dms, snr_threshold, widths) == expected
    for row, dm in enumerate(dms):
        one_series = search_single_pulses(block[row], TSAMP_S, dm, snr_threshold, widths)
        assert one_series == expected[row]


def test_block_search_finds_the_injected_pulse_row():
    rng = np.random.default_rng(5)
    block = rng.normal(size=(4, 2048)).astype(np.float32)
    block[2, 700:708] += 6.0
    per_row = search_single_pulses(block, TSAMP_S, (0.0, 10.0, 20.0, 30.0), 8.0)
    assert [len(events) for events in per_row] == [0, 0, 1, 0]
    assert per_row[2][0].dm == 20.0
    assert per_row[2][0].time_s == pytest.approx(704 * TSAMP_S, abs=8 * TSAMP_S)


def test_series_shorter_than_every_width_yields_no_events():
    assert search_single_pulses(np.zeros((2, 3)), TSAMP_S, (0.0, 1.0), widths=(4, 8)) == [[], []]
    assert search_single_pulses(np.zeros(3), TSAMP_S, 0.0, widths=(4, 8)) == []


def test_block_validation():
    block = np.random.default_rng(0).normal(size=(3, 64))
    with pytest.raises(SearchError, match="one DM per row"):
        search_single_pulses(block, TSAMP_S, (0.0, 1.0))
    with pytest.raises(SearchError, match="one DM per row"):
        search_single_pulses(block, TSAMP_S, 0.0)
    with pytest.raises(SearchError, match="1-D, or a 2-D block"):
        search_single_pulses(block[None], TSAMP_S, (0.0,))
    with pytest.raises(SearchError, match="bad boxcar width 0"):
        search_single_pulses(block, TSAMP_S, (0.0, 1.0, 2.0), widths=(0, 1))
    with pytest.raises(SearchError, match="sampling time"):
        search_single_pulses(block, 0.0, (0.0, 1.0, 2.0))


def test_one_series_takes_one_dm():
    """Was: a 1-D series with a sequence of DMs gave events whose ``dm`` was
    the sequence, and hashing such an event raised."""
    series = np.random.default_rng(2).normal(size=64)
    series[30] += 20.0
    with pytest.raises(SearchError, match="a 1-D series takes one DM"):
        search_single_pulses(series, TSAMP_S, (0.0, 1.0))
    with pytest.raises(SearchError, match="a 1-D series takes one DM"):
        search_single_pulses(series, TSAMP_S, [3.0])
    assert search_single_pulses(series, TSAMP_S, np.float64(3.0))


@pytest.mark.parametrize("tsamp_s", [np.nan, np.inf])
def test_non_finite_sampling_time_is_rejected(tsamp_s):
    """Was: NaN passed ``tsamp_s <= 0`` and every event time was NaN."""
    block = np.random.default_rng(3).normal(size=(3, 64))
    with pytest.raises(SearchError, match="sampling time must be positive"):
        search_single_pulses(block, tsamp_s, (0.0, 1.0, 2.0), snr_threshold=0.0)


TILE_SERIES_COUNTS = (
    SINGLE_PULSE_TILE_ROWS - 1,
    SINGLE_PULSE_TILE_ROWS,
    SINGLE_PULSE_TILE_ROWS + 1,
)


class TestTiledSearch:
    """The tiled search equals the per-series loop at any thread count,
    across tile boundaries; ``kernel_threads`` also checks no thread
    outlives it."""

    @pytest.mark.parametrize("n_series", TILE_SERIES_COUNTS)
    def test_equals_per_series_loop(self, kernel_threads, n_series):
        rng = np.random.default_rng(n_series)
        block = rng.normal(size=(n_series, 512)).astype(np.float32)
        for row in (0, n_series // 2, n_series - 1):
            block[row, 100 + row : 108 + row] += 3.0
            block[row, 300:302] += 5.0
        dms = [1.5 * row for row in range(n_series)]
        # A low threshold: noise hits in every tile, and many to cluster.
        expected = per_series_single_pulse_search(block, TSAMP_S, dms, 3.0)
        assert sum(map(len, expected)) > n_series
        assert search_single_pulses(block, TSAMP_S, dms, 3.0) == expected

    @pytest.mark.parametrize("n_series", TILE_SERIES_COUNTS)
    def test_degenerate_row_in_a_later_tile(self, kernel_threads, n_series):
        """The error of the tile holding the bad row."""
        block = np.random.default_rng(19).normal(size=(n_series + SINGLE_PULSE_TILE_ROWS, 256))
        block[-1, 3] = np.nan
        with pytest.raises(SearchError, match="degenerate time series"):
            search_single_pulses(block, TSAMP_S, np.arange(len(block), dtype=float))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_noise_estimate_is_rejected(bad):
    """Was: NaN sigmas pass ``sigmas <= 0``, every S/N compares false, and
    the block reports no events and no error."""
    block = np.random.default_rng(1).normal(size=(3, 64))
    block[1, 10:50] = bad  # most of the row: the median itself is not finite
    with pytest.raises(SearchError, match="degenerate time series"):
        search_single_pulses(block, TSAMP_S, (0.0, 1.0, 2.0))
    with pytest.raises(SearchError, match="degenerate time series"):
        search_single_pulses(block[1], TSAMP_S, 1.0)
    with pytest.raises(SearchError, match="degenerate time series"):
        boxcar_snr(block[1], 4)
    block[1] = 1.0
    block[1, 10] = np.nan  # one NaN sample is enough
    with pytest.raises(SearchError, match="degenerate time series"):
        search_single_pulses(block, TSAMP_S, (0.0, 1.0, 2.0))
    with pytest.raises(SearchError, match="degenerate time series"):
        boxcar_snr(block[1], 4)
