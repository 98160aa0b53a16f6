"""Single-pulse (transient) search.

"Investigation of the time series for transient signals that may be
associated with astrophysical objects other than pulsars" — matched
filtering with a ladder of boxcar widths over each dedispersed time
series, thresholding, and clustering of overlapping detections.

:func:`search_single_pulses` searches a block of series a tile of rows at
a time, the tiles spread over the CPUs; the one-series, one-width filter
it must agree with bitwise is ``boxcar_snr`` in
``tests/arecibo/conftest.py``, and ``per_series_single_pulse_search``
there, with its per-hit clustering loop, is the whole search's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from repro.core.errors import SearchError
from repro.core.kernels import row_medians, run_tiles, threshold_hits

DEFAULT_WIDTHS = (1, 2, 4, 8, 16, 32)

#: Series per :func:`search_single_pulses` tile.  At 4 096 samples a tile's
#: float64 copy, scratch block and cumulative sums are 512 KB each.
SINGLE_PULSE_TILE_ROWS = 16


@dataclass(frozen=True)
class SinglePulseEvent:
    """One transient detection."""

    time_s: float
    width_s: float
    snr: float
    dm: float


def search_single_pulses(
    timeseries: np.ndarray,
    tsamp_s: float,
    dm: Union[float, Sequence[float]],
    snr_threshold: float = 6.0,
    widths: Sequence[int] = DEFAULT_WIDTHS,
) -> Union[List[SinglePulseEvent], List[List[SinglePulseEvent]]]:
    """Boxcar ladder + threshold + greedy clustering of overlapping hits.

    ``timeseries`` is one series with its ``dm`` (returns that series'
    events) or an ``(n_series, n_samples)`` block with one DM per row
    (returns one event list per row).  The block is searched a tile of
    :data:`SINGLE_PULSE_TILE_ROWS` series at a time, the tiles through
    :func:`~repro.core.kernels.run_tiles`: one median, MAD and cumulative
    sum per series serve every width of the ladder, each width's S/N is a
    slice difference of that one cumulative array, and hits are
    thresholded over the tile's rows at once.  Every row's events equal,
    value for value and in order, what a one-series boxcar filter per
    width over that row alone yields — the reductions run along ``axis=1``
    and the elementwise arithmetic is the same — so the tile split cannot
    move a value.

    Clustering is greedy: a row's hits, stably sorted by S/N, are taken
    strongest first, and each kept winner absorbs every hit within
    ``max(width, winner width)`` of its time.  It runs over a tile's hits
    as arrays, one mask per round that takes the next winner of every row
    at once, and no event is built for a hit that is absorbed.
    """
    # `not 0 < t < inf` also refuses NaN, which `t <= 0` let through.
    if not 0 < tsamp_s < np.inf:
        raise SearchError("sampling time must be positive")
    series = np.asarray(timeseries)
    one_series = series.ndim == 1
    if one_series:
        if np.ndim(dm) != 0:
            raise SearchError("a 1-D series takes one DM")
        series, dms = series[None, :], [dm]
    elif series.ndim == 2:
        if np.ndim(dm) != 1 or len(dm) != len(series):  # type: ignore[arg-type]
            raise SearchError(f"need one DM per row of a {series.shape} block")
        dms = list(dm)  # type: ignore[arg-type]
    else:
        raise SearchError("time series must be 1-D, or a 2-D block of series")
    n_series, n_samples = series.shape
    ladder = [width for width in widths if width <= n_samples]
    if not (ladder and n_series):
        return [] if one_series else [[] for _ in range(n_series)]
    if min(ladder) < 1:
        raise SearchError(f"bad boxcar width {min(ladder)} for {n_samples} samples")

    def search_tile(tile: int) -> List[List[SinglePulseEvent]]:
        first_row = tile * SINGLE_PULSE_TILE_ROWS
        # A private float64 copy: it is centred in place below.
        block = np.array(
            series[first_row : first_row + SINGLE_PULSE_TILE_ROWS], dtype=np.float64
        )
        # One scratch array serves both medians (partitioned in place) and
        # then every width's S/N.
        scratch = block.copy()
        block -= row_medians(scratch, overwrite_input=True)[:, None]
        centered = block
        np.abs(centered, out=scratch)
        sigmas = 1.4826 * row_medians(scratch, overwrite_input=True)
        # A NaN sample makes its row's MAD NaN, and NaN <= 0 is false.
        if not np.all((sigmas > 0) & np.isfinite(sigmas)):
            raise SearchError(
                "degenerate time series (zero MAD or a non-finite sample)"
            )
        cumulative = np.zeros((len(block), n_samples + 1), dtype=np.float64)
        np.cumsum(centered, axis=1, out=cumulative[:, 1:])
        hit_rows, times, widths_s, snrs = [], [], [], []
        for width in ladder:
            width_snrs = scratch[:, : n_samples - width + 1]
            if width == 1:
                sums = centered
            else:
                sums = np.subtract(
                    cumulative[:, width:], cumulative[:, :-width], out=width_snrs
                )
            np.divide(sums, (sigmas * np.sqrt(width))[:, None], out=width_snrs)
            rows, offsets, values = threshold_hits(width_snrs, snr_threshold)
            hit_rows.append(rows)
            times.append((offsets + width / 2.0) * tsamp_s)
            widths_s.append(np.full(len(rows), float(width * tsamp_s)))
            snrs.append(values)
        hit_rows, times, widths_s, snrs = map(
            np.concatenate, (hit_rows, times, widths_s, snrs)
        )
        # The hits were collected in (ladder, offset) order; a stable sort
        # by row, then S/N descending, keeps that order among equal S/N —
        # the order the one-series search's stable sort leaves them in.
        order = np.lexsort((-snrs, hit_rows))
        hit_rows, times, widths_s, snrs = (
            hit_rows[order], times[order], widths_s[order], snrs[order]
        )
        # Each round, the first hit left in every row wins, and leaves with
        # every hit left in its row within max(width, winner width) of it.
        # Overlap is symmetric and winners are taken in S/N order, so what
        # is left after a round is exactly the hits no earlier winner absorbs.
        kept = np.zeros(len(snrs), dtype=bool)
        left = np.arange(len(snrs))
        while left.size:
            leads = np.diff(hit_rows[left], prepend=-1) != 0
            winners = left[leads]
            kept[winners] = True
            winner_of = winners[np.cumsum(leads) - 1]
            absorbed = np.abs(times[left] - times[winner_of]) <= np.maximum(
                widths_s[left], widths_s[winner_of]
            )
            left = left[~(leads | absorbed)]
        events: List[List[SinglePulseEvent]] = [[] for _ in range(len(block))]
        for row, time_s, width_s, snr in zip(
            *(column[kept].tolist() for column in (hit_rows, times, widths_s, snrs))
        ):
            events[row].append(
                SinglePulseEvent(
                    time_s=time_s, width_s=width_s, snr=snr, dm=dms[first_row + row]
                )
            )
        return events

    n_tiles = -(-n_series // SINGLE_PULSE_TILE_ROWS)
    per_row = [events for tile in run_tiles(search_tile, n_tiles) for events in tile]
    return per_row[0] if one_series else per_row
