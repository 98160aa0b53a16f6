"""Fourier-domain periodicity search with harmonic summing.

The survey's core detection step: "Fourier analysis, harmonic summing,
threshold tests to identify candidates".  Pulsar pulses are narrow, so
their power is spread over many harmonics of the spin frequency; summing
the spectrum with its integer-stretched copies concentrates that power
back into one statistic, buying sensitivity to short-duty-cycle pulsars at
the cost of a higher trials factor.

:func:`search_spectrum` is the definition: one series, one spectrum, and a
dict of each bin's best S/N over the harmonic ladder.  The pipeline runs
:func:`search_dm_block`, which searches every DM trial of a beam in row
tiles spread over the CPUs and selects candidates with array sorts instead
of that dict; :func:`search_dm_block_reference`, the row-by-row loop over
:func:`search_spectrum`, is the oracle it is held to bitwise.
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


def _check_tsamp(tsamp_s: float) -> None:
    # `not 0 < t < inf` also refuses NaN, which `t <= 0` let through.
    if not 0 < tsamp_s < np.inf:
        raise SearchError("sampling time must be positive")


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
    _check_tsamp(tsamp_s)
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
    A tile returns its threshold hits as arrays, one ``(rows, bins,
    values)`` triple per ladder step; once every tile is done, two stable
    sorts over all the hits do what :func:`search_spectrum`'s per-bin
    ``best`` dict does with one probe per hit.  The candidate list (values,
    sort order, ties) is exactly what :func:`search_dm_block_reference`
    produces:

    * spectra and S/N ladders are per-row reductions that match the 1-D
      calls bitwise whatever rows share a call;
    * the dict replaces a bin's best only on a strictly greater S/N, so a
      bin keeps the *first* depth that reached its maximum: here a bin's
      hits, in ladder order, are sorted stably by S/N descending and the
      first one is kept;
    * the reference sorts each row stably by S/N over the dict's insertion
      order — the ladder step that first hit the bin, then bin — and then
      all rows stably by S/N over row order, which is one ``lexsort`` on
      (S/N descending, row, first-hit step, bin).
    """
    block = np.asarray(block)
    if block.ndim != 2 or block.shape[0] != len(dm_trials):
        raise SearchError("block rows must match DM trials")
    _check_tsamp(tsamp_s)

    def search_tile(tile: int) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
        first_row = tile * SEARCH_TILE_ROWS
        try:
            spectra = batched_power_spectra(
                block[first_row : first_row + SEARCH_TILE_ROWS]
            )
        except KernelError as exc:
            raise SearchError(str(exc)) from exc
        ladder = [n for n in harmonics if n <= spectra.shape[1]]
        passes = []
        for n_harmonics, snrs in harmonic_snr_block(spectra, ladder):
            rows, bins, values = threshold_hits(snrs, snr_threshold)
            passes.append((rows + first_row, bins, values, n_harmonics))
        return passes

    # Every threshold pass of every tile, in tile and then ladder order: a
    # (row, bin) cell's hits are in ladder order, and a row's passes too.
    passes = [
        hits
        for tile in run_tiles(search_tile, -(-block.shape[0] // SEARCH_TILE_ROWS))
        for hits in tile
    ]
    if not passes:
        return []
    rows, bins, snrs = (
        np.concatenate([hits[column] for hits in passes]) for column in range(3)
    )
    if not rows.size:
        return []
    counts = [len(hits[0]) for hits in passes]
    pass_of = np.repeat(np.arange(len(passes)), counts)
    depths = np.repeat([hits[3] for hits in passes], counts)
    # One cell's hits, stably by S/N descending: the first is the first
    # pass that reached the cell's best, and the cell's smallest pass is
    # where the reference's dict inserted it.
    cells = rows * block.shape[1] + bins
    order = np.lexsort((-snrs, cells))
    starts = np.flatnonzero(np.diff(cells[order], prepend=-1))
    first_pass = np.minimum.reduceat(pass_of[order], starts)
    best = order[starts]
    rows, bins, snrs, depths = rows[best], bins[best], snrs[best], depths[best]
    freqs = (bins + 1) / (block.shape[1] * tsamp_s)
    order = np.lexsort((bins, first_pass, rows, -snrs))
    order = order[~(freqs[order] < min_freq_hz)]
    return [
        FourierCandidate(
            freq_hz=freq,
            period_s=1.0 / freq,
            snr=snr,
            n_harmonics=n_harmonics,
            dm=dm_trials[row],
            pointing_id=pointing_id,
            beam=beam,
        )
        for row, freq, snr, n_harmonics in zip(
            rows[order].tolist(),
            freqs[order].tolist(),
            snrs[order].tolist(),
            depths[order].tolist(),
        )
    ]


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
