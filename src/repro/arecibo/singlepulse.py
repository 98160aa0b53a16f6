"""Single-pulse (transient) search.

"Investigation of the time series for transient signals that may be
associated with astrophysical objects other than pulsars" — matched
filtering with a ladder of boxcar widths over each dedispersed time
series, thresholding, and clustering of overlapping detections.

:func:`search_single_pulses` searches a whole block of series at once; the
one-series, one-width filter it must agree with bitwise is ``boxcar_snr``
in ``tests/arecibo/conftest.py``, the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from repro.core.errors import SearchError
from repro.core.kernels import row_medians

DEFAULT_WIDTHS = (1, 2, 4, 8, 16, 32)


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
    (returns one event list per row).  The block is searched as a whole:
    one median, MAD and cumulative sum per series serve every width of the
    ladder, each width's S/N is a slice difference of that one cumulative
    array, and hits are thresholded over all rows at once.  Every row's
    events equal, value for value and in order, what a one-series boxcar
    filter per width over that row alone yields — the reductions run along
    ``axis=1`` and the elementwise arithmetic is the same.
    """
    if tsamp_s <= 0:
        raise SearchError("sampling time must be positive")
    # A private float64 copy: it is centred in place below.
    block = np.array(timeseries, dtype=np.float64)
    one_series = block.ndim == 1
    if one_series:
        block, dms = block[None, :], [dm]
    elif block.ndim == 2:
        if np.ndim(dm) != 1 or len(dm) != len(block):  # type: ignore[arg-type]
            raise SearchError(f"need one DM per row of a {block.shape} block")
        dms = list(dm)  # type: ignore[arg-type]
    else:
        raise SearchError("time series must be 1-D, or a 2-D block of series")
    n_series, n_samples = block.shape
    ladder = [width for width in widths if width <= n_samples]
    raw_hits: List[List[SinglePulseEvent]] = [[] for _ in range(n_series)]
    if ladder and n_series:
        if min(ladder) < 1:
            raise SearchError(
                f"bad boxcar width {min(ladder)} for {n_samples} samples"
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
        cumulative = np.zeros((n_series, n_samples + 1), dtype=np.float64)
        np.cumsum(centered, axis=1, out=cumulative[:, 1:])
        for width in ladder:
            snrs = scratch[:, : n_samples - width + 1]
            if width == 1:
                sums = centered
            else:
                sums = np.subtract(
                    cumulative[:, width:], cumulative[:, :-width], out=snrs
                )
            np.divide(sums, (sigmas * np.sqrt(width))[:, None], out=snrs)
            rows, offsets = np.nonzero(snrs >= snr_threshold)
            times = ((offsets + width / 2.0) * tsamp_s).tolist()
            width_s = float(width * tsamp_s)
            # np.nonzero is row-major, so each row collects its hits in
            # (ladder, offset) order — the order the stable sort below, and
            # through it the clustering, depends on.
            for row, time_s, snr in zip(
                rows.tolist(), times, snrs[rows, offsets].tolist()
            ):
                raw_hits[row].append(
                    SinglePulseEvent(
                        time_s=time_s, width_s=width_s, snr=snr, dm=dms[row]
                    )
                )
    clustered: List[List[SinglePulseEvent]] = []
    for hits in raw_hits:
        # Greedy clustering: strongest hit absorbs everything overlapping it.
        hits.sort(key=lambda event: -event.snr)
        kept: List[SinglePulseEvent] = []
        for hit in hits:
            absorbed = False
            for winner in kept:
                if abs(hit.time_s - winner.time_s) <= max(hit.width_s, winner.width_s):
                    absorbed = True
                    break
            if not absorbed:
                kept.append(hit)
        clustered.append(kept)
    return clustered[0] if one_series else clustered
