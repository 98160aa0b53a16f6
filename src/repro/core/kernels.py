"""Batched numeric kernels for the hot search paths.

The compute that dominates every Figure-1 run is shift-and-sum
dedispersion, Fourier search, and folding.  This module holds the
vectorized cores those paths share; the naive loop each one replaces is
kept as its oracle — in ``repro.arecibo`` where the loop is itself the
definition (``power_spectrum``, ``harmonic_sum``, ``fold``), in the test
suite otherwise — so equivalence is testable forever.

Every kernel here is **bitwise-equivalent** to its oracle, not merely
close: batched execution performs the same floating-point operations in
the same order as the per-item loops (per-channel accumulation order,
per-row reductions along ``axis=1``, a harmonic ladder's partial sums
shared between depths but still accumulated h = 1, 2, 3, ...), so a
seeded result cannot tell the two apart.  The equivalence suite
(``tests/core/test_kernels.py``) asserts ``np.array_equal``, and the
figure benchmarks pin exact recall — either would catch a ULP of drift.

Kernels raise :class:`~repro.core.errors.KernelError` on misuse; domain
wrappers (``repro.arecibo.dedisperse`` etc.) translate to their own error
types so callers see the same exceptions the naive paths raised.

A kernel whose output rows are independent splits them into tiles and
hands the tiles to :func:`run_tiles`, which spreads them over the
process's CPUs for the length of one call.  A row is computed by exactly
one thread with exactly the operations of the serial loop, so the split
cannot move a bit.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.errors import KernelError

T = TypeVar("T")

#: Threads one :func:`run_tiles` call may use, its caller included: the
#: CPUs this process may run on.
KERNEL_THREADS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

#: Accumulator bytes per :func:`shift_sum` trial tile.  The tile's float64
#: accumulator and the equally sized per-channel gather must both stay in
#: a core's L2 while all channels are added into it; 512 KB (16 trials at
#: 4 096 samples) leaves room for both in the 1-4 MB L2 of current CPUs.
SHIFT_SUM_TILE_BYTES = 512 * 1024


def run_tiles(fn: Callable[[int], T], n_tiles: int) -> List[T]:
    """``[fn(0), ..., fn(n_tiles - 1)]``, the tiles spread over the CPUs.

    The caller and up to ``KERNEL_THREADS - 1`` helper threads, started
    for this call, take tile indices from one shared iterator until it is
    empty; numpy releases the GIL inside its array loops, so the tiles'
    array work runs side by side.  With one CPU there are no helpers and
    the caller runs every tile in order — the same loop, not a second path.

    Every helper is joined before this returns or raises: no thread
    outlives the call, so nothing is left behind to hold a lock across a
    ``fork`` and there is no pool to share between callers.  A thread that
    sees a tile has raised claims no further tile; the tiles already
    claimed finish, and the exception raised is the lowest-index tile's —
    the one the serial loop would have stopped on, since tiles are claimed
    in index order and every tile below a failed one was claimed before it.
    """
    results: List[Optional[T]] = [None] * n_tiles
    errors: Dict[int, BaseException] = {}
    # Under the GIL, next() on a range iterator and a store to a distinct
    # index or key are single steps, so the threads need no lock.
    tiles = iter(range(n_tiles))

    def claim() -> None:
        while not errors:
            index = next(tiles, None)
            if index is None:
                return
            try:
                results[index] = fn(index)
            except BaseException as exc:  # re-raised in the caller
                errors[index] = exc

    helpers: List[threading.Thread] = []
    try:
        for _ in range(min(KERNEL_THREADS, n_tiles) - 1):
            helper = threading.Thread(target=claim, name="kernel-tile", daemon=True)
            helper.start()
            helpers.append(helper)
        claim()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        error = errors[min(errors)]
        errors.clear()
        try:
            raise error
        finally:
            del error
    return results  # type: ignore[return-value]


def shift_sum(data: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Average ``data`` rows under per-(trial, channel) circular left-shifts.

    ``data`` is ``(n_channels, n_samples)``; ``shifts`` is
    ``(n_trials, n_channels)`` of integer left-shifts.  Returns the
    ``(n_trials, n_samples)`` float32 block where row ``t`` is
    ``sum_c roll(data[c], -shifts[t, c])``, summed in float64, divided by
    ``n_channels`` and cast to float32 — incoherent dedispersion for
    every trial DM at once.

    The batch is a gather, not ``n_trials * n_channels`` rolls: the array
    is doubled along the sample axis so every circular shift is one
    contiguous window (``roll(x, -s)[i] == x[(i + s) % n]``), and
    ``sliding_window_view`` exposes all windows without copying.  The
    doubled array is converted to float64 once (the exact conversion the
    per-trial ``np.roll`` loop's ``float64 += data`` performs per add), and the trials are
    walked in tiles of :data:`SHIFT_SUM_TILE_BYTES` so one tile's
    accumulator stays cache-resident while every channel is added into
    it; the tiles run through :func:`run_tiles`.  Each output element
    still receives its channels in index order, on one thread, which is
    exactly that loop's addition order — hence bitwise equality, whatever
    the tile split or the thread count.  The division and the cast are
    elementwise, so doing them per tile, from the tile's own float64
    accumulator into the float32 output, is bitwise the whole-block
    ``(block / n_channels).astype(np.float32)``; no whole float64 block
    is ever allocated.
    """
    data = np.asarray(data)
    shifts = np.asarray(shifts)
    if data.ndim != 2 or shifts.ndim != 2:
        raise KernelError("shift_sum needs 2-D data and 2-D shifts")
    if shifts.shape[1] != data.shape[0]:
        raise KernelError(
            f"shifts has {shifts.shape[1]} columns for {data.shape[0]} channels"
        )
    if data.shape[1] == 0:
        raise KernelError("shift_sum needs at least one sample")
    if not np.issubdtype(shifts.dtype, np.integer):
        raise KernelError(
            f"shift_sum needs integer shifts, got dtype {shifts.dtype}"
        )
    n_channels, n_samples = data.shape
    wrapped = np.mod(shifts, n_samples)
    doubled = np.concatenate([data, data], axis=1, dtype=np.float64)
    # (n_channels, n_samples + 1, n_samples): windows[c][s] == roll(data[c], -s)
    windows = np.lib.stride_tricks.sliding_window_view(doubled, n_samples, axis=1)
    out = np.empty((shifts.shape[0], n_samples), dtype=np.float32)
    tile_rows = max(1, SHIFT_SUM_TILE_BYTES // (n_samples * 8))

    def add_channels(tile: int) -> None:
        rows = slice(tile * tile_rows, (tile + 1) * tile_rows)
        tile_shifts = wrapped[rows]
        accumulator = np.zeros((len(tile_shifts), n_samples), dtype=np.float64)
        for channel in range(n_channels):
            accumulator += windows[channel][tile_shifts[:, channel]]
        accumulator /= n_channels
        out[rows] = accumulator

    run_tiles(add_channels, -(-shifts.shape[0] // tile_rows))
    return out


def row_medians(block: np.ndarray, overwrite_input: bool = False) -> np.ndarray:
    """Median of every row of a 2-D block, from one selection per row.

    Bitwise ``np.median(block, axis=1)``.  ``np.median`` asks ``partition``
    for three order statistics (both middles and the last element, its NaN
    sentinel), which takes numpy off its single-pivot selection path; this
    asks for one, ``n // 2``, and reads the rest off the partitioned row:
    for even ``n`` the lower middle is the maximum of the left half and the
    median is ``(lower + upper) / 2`` — the two-element mean ``np.median``
    takes — and since ``partition`` orders NaN last, a row holds one exactly
    when the maximum of its right half is NaN, and then reads NaN.

    ``overwrite_input=True`` partitions ``block`` in place instead of a copy.
    """
    block = np.asarray(block)
    if block.ndim != 2 or block.shape[1] == 0:
        raise KernelError("row_medians needs a 2-D block with at least one column")
    middle = block.shape[1] // 2
    if overwrite_input:
        block.partition(middle, axis=1)
        part = block
    else:
        part = np.partition(block, middle, axis=1)
    # `+ 0.0`: np.median's mean starts its sum from +0.0, so it never
    # returns -0.0; every other value is unchanged by it.
    if block.shape[1] % 2:
        medians = part[:, middle] + 0.0
    else:
        medians = (part[:, :middle].max(axis=1) + 0.0 + part[:, middle]) / 2
    medians[np.isnan(part[:, middle:].max(axis=1))] = np.nan
    return medians


def batched_power_spectra(block: np.ndarray) -> np.ndarray:
    """Normalized power spectra of every row of a ``(n_series, n_samples)``
    block in one rfft call.

    Row ``r`` equals ``repro.arecibo.fourier.power_spectrum(block[r])``
    bitwise: mean subtraction, ``|rfft|**2``, DC-bin drop, and the
    median/ln2 noise normalization are all per-row reductions along
    ``axis=1``, which numpy evaluates identically to the 1-D calls (the
    median through :func:`row_medians`).
    """
    # A private float64 copy, centred in place.  It and its transform are
    # each dropped as soon as the next array exists: held together they
    # were a Figure-1 pass's memory high-water mark (10 MB a beam).
    series = np.array(block, dtype=np.float64)
    if series.ndim != 2 or series.shape[1] < 16:
        raise KernelError("need a 2-D block of series with at least 16 samples")
    series -= series.mean(axis=1, keepdims=True)
    transform = np.fft.rfft(series, axis=1)
    del series
    spectra = np.abs(transform)
    del transform
    spectra **= 2
    spectra = spectra[:, 1:]  # drop DC
    medians = row_medians(spectra)[:, None]
    # One non-finite sample makes its whole row NaN, and NaN <= 0 is false.
    if not np.all((medians > 0) & np.isfinite(medians)):
        raise KernelError(
            "degenerate spectrum (zero median power or a non-finite sample)"
        )
    return spectra / (medians / np.log(2.0))


def harmonic_snr_block(
    spectra: np.ndarray, harmonics: Sequence[int]
) -> Iterator[Tuple[int, np.ndarray]]:
    """Harmonic-summed detection S/N of a spectra block, one depth at a time.

    Yields ``(n_harmonics, snrs)`` for each depth of ``harmonics`` in turn;
    row ``r`` of ``snrs`` equals ``summed_snr(harmonic_sum(spectra[r], n),
    n)``.  The ladder is walked once: a depth's sum is the first ``n``
    terms of any deeper one's, so one running total carries over — cut to
    the deeper fold's bin count, then extended by harmonics ``n+1..m`` — and
    every element still accumulates h = 1, 2, 3, ... in order, which is what
    keeps it bitwise.  A depth below the last one starts the total afresh
    (a repeated depth reuses it as it stands).  The h-fold compressed copy
    ``spectra[:, h*(k+1)-1]`` is the strided view ``spectra[:, h-1::h]``,
    so nothing is gathered.
    """
    spectra = np.asarray(spectra, dtype=np.float64)
    if spectra.ndim != 2:
        raise KernelError("harmonic_snr_block needs a 2-D spectra block")
    total = np.zeros(spectra.shape, dtype=np.float64)
    summed = 0  # `total` holds harmonics 1..summed
    for n_harmonics in harmonics:
        if n_harmonics < 1:
            raise KernelError("need at least one harmonic")
        n_bins = spectra.shape[1] // n_harmonics
        if n_bins < 1:
            raise KernelError("spectra too short for this many harmonics")
        if n_harmonics < summed:
            total = np.zeros(spectra.shape, dtype=np.float64)
            summed = 0
        total = total[:, :n_bins]
        for harmonic in range(summed + 1, n_harmonics + 1):
            total += spectra[:, harmonic - 1 :: harmonic][:, :n_bins]
        summed = n_harmonics
        yield n_harmonics, (total - n_harmonics) / np.sqrt(n_harmonics)


def threshold_hits(
    snrs: np.ndarray, threshold: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells of an ``(n_rows, n_bins)`` S/N block at or above threshold.

    Both searches threshold with it: the Fourier search each harmonic
    depth's spectra, the single-pulse search each boxcar width's series.

    Returns ``(rows, bins, values)``, one entry per hit in row-major order:
    by row, and within a row in ascending bin order — the order looping
    ``np.flatnonzero(row >= threshold)`` row by row visits them — with the
    hit values gathered once.  The hits are found as flat indices and split
    by ``divmod``: 2-D ``np.nonzero`` is ~10x slower on a sparse
    (16, 2048) mask.
    """
    snrs = np.asarray(snrs)
    if snrs.ndim != 2:
        raise KernelError("threshold_hits needs a 2-D S/N block")
    rows, bins = np.divmod(np.flatnonzero(snrs >= threshold), snrs.shape[1])
    return rows, bins, snrs[rows, bins]


def fold_block(
    series: np.ndarray,
    tsamp_s: float,
    periods: np.ndarray,
    n_bins: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold one time series at many trial periods in one pass.

    Returns ``(profiles, hits)`` of shapes ``(n_trials, n_bins)``; row
    ``t`` matches ``repro.arecibo.folding.fold(series, tsamp_s,
    periods[t], n_bins)`` bitwise *provided* ``n_bins`` is the effective
    bin count for every period (callers group trials by the adjusted bin
    count; see ``fold_many``).  The scatter-add runs as one flattened
    ``np.bincount``, which accumulates weights in input order — the same
    order ``np.add.at`` visits each trial's samples.
    """
    series = np.asarray(series, dtype=np.float64)
    periods = np.asarray(periods, dtype=np.float64)
    if series.ndim != 1 or periods.ndim != 1:
        raise KernelError("fold_block needs a 1-D series and 1-D periods")
    if n_bins < 1:
        raise KernelError("need at least one phase bin")
    if tsamp_s <= 0 or np.any(periods <= 0):
        raise KernelError("period and sampling time must be positive")
    n_trials = len(periods)
    times = np.arange(len(series)) * tsamp_s
    # In-place arithmetic below performs the identical float ops the
    # per-trial fold does — it only avoids (n_trials, n_samples) temporaries.
    phases = times[None, :] % periods[:, None]
    phases /= periods[:, None]
    phases *= n_bins
    bins = phases.astype(np.int64)
    bins %= n_bins
    bins += (np.arange(n_trials) * n_bins)[:, None]
    flat = bins.ravel()
    weights = np.broadcast_to(series, bins.shape).ravel()
    profiles = np.bincount(flat, weights=weights, minlength=n_trials * n_bins)
    profiles = profiles.reshape(n_trials, n_bins)
    hits = np.bincount(flat, minlength=n_trials * n_bins).reshape(n_trials, n_bins)
    occupied = hits > 0
    profiles[occupied] /= hits[occupied]
    return profiles, hits.astype(np.int64)


def index_postings(
    tokenized_documents: Sequence[Tuple[str, Sequence[str]]],
) -> Tuple[dict, dict, dict]:
    """Build inverted-index structures over pre-tokenized documents.

    Returns ``(postings, doc_lengths, doc_terms)`` in one pass with local
    bindings hoisted out of the loop — the batched core behind
    ``TextIndex.add_many``.  Later duplicates of a URL win, matching
    repeated ``add`` calls.
    """
    postings: dict = {}
    doc_lengths: dict = {}
    doc_terms: dict = {}
    for url, tokens in tokenized_documents:
        if url in doc_terms:
            for term in doc_terms[url]:
                bucket = postings.get(term)
                if bucket is not None:
                    bucket.pop(url, None)
                    if not bucket:
                        del postings[term]
        counts: dict = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        doc_lengths[url] = len(tokens)
        doc_terms[url] = tuple(counts)
        for token, count in counts.items():
            bucket = postings.get(token)
            if bucket is None:
                bucket = postings[token] = {}
            bucket[url] = count
    return postings, doc_lengths, doc_terms
