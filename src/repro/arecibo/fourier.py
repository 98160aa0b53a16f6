"""Fourier-domain periodicity search with harmonic summing.

The survey's core detection step: "Fourier analysis, harmonic summing,
threshold tests to identify candidates".  Pulsar pulses are narrow, so
their power is spread over many harmonics of the spin frequency; summing
the spectrum with its integer-stretched copies concentrates that power
back into one statistic, buying sensitivity to short-duty-cycle pulsars at
the cost of a higher trials factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.errors import KernelError, SearchError
from repro.core.kernels import (
    batched_power_spectra,
    harmonic_snr_block,
    run_tiles,
    threshold_hits,
)

DEFAULT_HARMONICS = (1, 2, 4, 8, 16)

#: Trials per :func:`search_dm_block` tile.  At 4 096 samples a tile's
#: float64 spectra are 256 KB and its transform 512 KB, so every thread's
#: temporaries stay small and cache-sized.
SEARCH_TILE_ROWS = 16


def power_spectrum(timeseries: np.ndarray) -> np.ndarray:
    """Normalized power spectrum (DC bin removed → index k is k/T Hz).

    Normalization: for white Gaussian noise the powers are ~exponential
    with unit mean, so thresholds have a direct false-alarm meaning.
    """
    series = np.asarray(timeseries, dtype=np.float64)
    if series.ndim != 1 or len(series) < 16:
        raise SearchError("need a 1-D time series of at least 16 samples")
    series = series - series.mean()
    spectrum = np.abs(np.fft.rfft(series)) ** 2
    spectrum = spectrum[1:]  # drop DC
    # Robust noise normalization: the median of a unit-mean exponential is
    # ln 2, so dividing by median/ln2 restores unit mean under noise while
    # ignoring bright signal bins.
    median = np.median(spectrum)
    # One non-finite sample makes the whole spectrum NaN, and NaN <= 0 is false.
    if not (median > 0 and np.isfinite(median)):
        raise SearchError(
            "degenerate spectrum (zero median power or a non-finite sample)"
        )
    return spectrum / (median / np.log(2.0))


def harmonic_sum(spectrum: np.ndarray, n_harmonics: int) -> np.ndarray:
    """Sum the spectrum with its h-fold compressed copies.

    Element ``k`` of the result is ``sum_{h=1..n} spectrum[h*(k+1)-1]``
    (power at the h-th harmonic of frequency bin k), truncated where
    harmonics fall off the end.
    """
    if n_harmonics < 1:
        raise SearchError("need at least one harmonic")
    n_bins = len(spectrum) // n_harmonics
    if n_bins < 1:
        raise SearchError("spectrum too short for this many harmonics")
    total = np.zeros(n_bins, dtype=np.float64)
    base = np.arange(1, n_bins + 1)
    for harmonic in range(1, n_harmonics + 1):
        total += spectrum[harmonic * base - 1]
    return total


def summed_snr(summed: np.ndarray, n_harmonics: int) -> np.ndarray:
    """Convert harmonic-summed powers to an equivalent Gaussian S/N.

    Under noise the sum of n unit-mean exponentials has mean n and
    variance n; (x - n)/sqrt(n) is the standard detection statistic.
    """
    return (summed - n_harmonics) / np.sqrt(n_harmonics)


@dataclass(frozen=True)
class FourierCandidate:
    """One above-threshold periodicity detection."""

    freq_hz: float
    period_s: float
    snr: float
    n_harmonics: int
    dm: float
    accel_ms2: float = 0.0  # trial acceleration the series was resampled at
    pointing_id: int = -1
    beam: int = -1


def search_spectrum(
    timeseries: np.ndarray,
    tsamp_s: float,
    dm: float,
    snr_threshold: float = 6.0,
    harmonics: Sequence[int] = DEFAULT_HARMONICS,
    min_freq_hz: float = 1.0,
    accel_ms2: float = 0.0,
    pointing_id: int = -1,
    beam: int = -1,
) -> List[FourierCandidate]:
    """Threshold test over all harmonic folds of one time series.

    Each spectral bin keeps its best S/N over the harmonic ladder; bins
    beating the threshold (above ``min_freq_hz``, to dodge red noise and
    the 60 Hz comb's DC-side clutter) become candidates.
    """
    if tsamp_s <= 0:
        raise SearchError("sampling time must be positive")
    spectrum = power_spectrum(timeseries)
    total_time = len(timeseries) * tsamp_s
    candidates: List[FourierCandidate] = []
    best: dict[int, Tuple[float, int]] = {}
    for n_harmonics in harmonics:
        if n_harmonics > len(spectrum):
            continue
        summed = harmonic_sum(spectrum, n_harmonics)
        snrs = summed_snr(summed, n_harmonics)
        for bin_index in np.flatnonzero(snrs >= snr_threshold):
            snr = float(snrs[bin_index])
            current = best.get(int(bin_index))
            if current is None or snr > current[0]:
                best[int(bin_index)] = (snr, n_harmonics)
    for bin_index, (snr, n_harmonics) in best.items():
        freq = (bin_index + 1) / total_time
        if freq < min_freq_hz:
            continue
        candidates.append(
            FourierCandidate(
                freq_hz=freq,
                period_s=1.0 / freq,
                snr=snr,
                n_harmonics=n_harmonics,
                dm=dm,
                accel_ms2=accel_ms2,
                pointing_id=pointing_id,
                beam=beam,
            )
        )
    candidates.sort(key=lambda c: -c.snr)
    return candidates


def search_dm_block(
    block: np.ndarray,
    dm_trials: Sequence[float],
    tsamp_s: float,
    snr_threshold: float = 6.0,
    harmonics: Sequence[int] = DEFAULT_HARMONICS,
    min_freq_hz: float = 1.0,
    pointing_id: int = -1,
    beam: int = -1,
) -> List[FourierCandidate]:
    """Search every trial of a dedispersed block, batched.

    Per tile of :data:`SEARCH_TILE_ROWS` trials: one rfft, one walk of the
    harmonic ladder (each depth's S/N off the same running sum), one
    threshold pass per depth — instead of ``n_trials`` independent
    spectra; the tiles run through :func:`~repro.core.kernels.run_tiles`.
    The candidate list (values, insertion order, sort order) is exactly
    what :func:`search_dm_block_reference` produces: spectra and S/N
    ladders are per-row reductions that match the 1-D calls bitwise
    whatever rows share a call, threshold hits are visited in the same
    (row, ascending-bin) order the naive loop uses, candidates are built
    in row order after every tile is done, and the final sort is stable
    in both paths.
    """
    block = np.asarray(block)
    if block.ndim != 2 or block.shape[0] != len(dm_trials):
        raise SearchError("block rows must match DM trials")
    if tsamp_s <= 0:
        raise SearchError("sampling time must be positive")

    def search_tile(tile: int) -> List[dict]:
        rows = block[tile * SEARCH_TILE_ROWS : (tile + 1) * SEARCH_TILE_ROWS]
        try:
            spectra = batched_power_spectra(rows)
        except KernelError as exc:
            raise SearchError(str(exc)) from exc
        # Best (snr, n_harmonics) per (row, bin), filled in ladder order like
        # search_spectrum's `best` dict — including its strict-> update rule.
        best: List[dict] = [{} for _ in range(rows.shape[0])]
        ladder = [n for n in harmonics if n <= spectra.shape[1]]
        for n_harmonics, snrs in harmonic_snr_block(spectra, ladder):
            for row_best, (bins, row_snrs) in zip(
                best, threshold_hits(snrs, snr_threshold)
            ):
                if not bins.size:
                    continue
                for bin_index, snr in zip(bins.tolist(), row_snrs.tolist()):
                    current = row_best.get(bin_index)
                    if current is None or snr > current[0]:
                        row_best[bin_index] = (snr, n_harmonics)
        return best

    n_tiles = -(-block.shape[0] // SEARCH_TILE_ROWS)
    best = [row for tile in run_tiles(search_tile, n_tiles) for row in tile]
    total_time = block.shape[1] * tsamp_s
    candidates: List[FourierCandidate] = []
    for row, dm in enumerate(dm_trials):
        row_candidates: List[FourierCandidate] = []
        for bin_index, (snr, n_harmonics) in best[row].items():
            freq = (bin_index + 1) / total_time
            if freq < min_freq_hz:
                continue
            row_candidates.append(
                FourierCandidate(
                    freq_hz=freq,
                    period_s=1.0 / freq,
                    snr=snr,
                    n_harmonics=n_harmonics,
                    dm=dm,
                    pointing_id=pointing_id,
                    beam=beam,
                )
            )
        # Mirror the per-spectrum sort search_spectrum performs before the
        # global one; both sorts are stable, so ties land identically.
        row_candidates.sort(key=lambda c: -c.snr)
        candidates.extend(row_candidates)
    candidates.sort(key=lambda c: -c.snr)
    return candidates


def search_dm_block_reference(
    block: np.ndarray,
    dm_trials: Sequence[float],
    tsamp_s: float,
    snr_threshold: float = 6.0,
    harmonics: Sequence[int] = DEFAULT_HARMONICS,
    min_freq_hz: float = 1.0,
    pointing_id: int = -1,
    beam: int = -1,
) -> List[FourierCandidate]:
    """The naive row-by-row loop :func:`search_dm_block` replaces.

    Retained as the equivalence oracle.
    """
    if block.shape[0] != len(dm_trials):
        raise SearchError("block rows must match DM trials")
    candidates: List[FourierCandidate] = []
    for row, dm in enumerate(dm_trials):
        candidates.extend(
            search_spectrum(
                block[row],
                tsamp_s,
                dm,
                snr_threshold=snr_threshold,
                harmonics=harmonics,
                min_freq_hz=min_freq_hz,
                pointing_id=pointing_id,
                beam=beam,
            )
        )
    candidates.sort(key=lambda c: -c.snr)
    return candidates
