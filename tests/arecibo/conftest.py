"""Shared fixtures for Arecibo tests: small observations with known truth."""

import numpy as np
import pytest

from repro.arecibo.singlepulse import DEFAULT_WIDTHS, SinglePulseEvent
from repro.arecibo.sky import N_BEAMS, Pointing, Pulsar
from repro.arecibo.telescope import ObservationConfig, ObservationSimulator
from repro.core.errors import SearchError


SMALL_CONFIG = ObservationConfig(n_channels=48, n_samples=4096)


def single_pulsar_pointing(pulsar, beam=2, rfi=(), pointing_id=0):
    return Pointing(
        pointing_id=pointing_id,
        pulsars_by_beam=tuple(
            (pulsar,) if index == beam else () for index in range(N_BEAMS)
        ),
        transients_by_beam=tuple(() for _ in range(N_BEAMS)),
        rfi=tuple(rfi),
    )


def boxcar_snr(timeseries, width):
    """Matched-filter S/N of a boxcar of ``width`` samples at each offset.

    Mean and standard deviation are estimated robustly (median / MAD) so a
    bright pulse does not suppress its own significance.  The one-series,
    one-width definition ``search_single_pulses`` is held to, bitwise.
    """
    series = np.asarray(timeseries, dtype=np.float64)
    if series.ndim != 1:
        raise SearchError("time series must be 1-D")
    if width < 1 or width > len(series):
        raise SearchError(f"bad boxcar width {width} for {len(series)} samples")
    median = np.median(series)
    mad = np.median(np.abs(series - median))
    sigma = 1.4826 * mad
    if not (sigma > 0 and np.isfinite(sigma)):
        raise SearchError("degenerate time series (zero MAD or a non-finite sample)")
    centered = series - median
    if width == 1:
        sums = centered
    else:
        cumulative = np.concatenate([[0.0], np.cumsum(centered)])
        sums = cumulative[width:] - cumulative[:-width]
    return sums / (sigma * np.sqrt(width))


def per_series_single_pulse_search(
    block, tsamp_s, dms, snr_threshold=6.0, widths=DEFAULT_WIDTHS
):
    """Single-pulse search as one ``boxcar_snr`` call per series per width.

    The oracle for the block search: every median, MAD
    and cumulative sum is recomputed for each width of each row.
    """
    results = []
    for series, dm in zip(block, dms):
        raw_hits = []
        for width in widths:
            if width > len(series):
                continue
            snrs = boxcar_snr(series, width)
            for offset in np.flatnonzero(snrs >= snr_threshold):
                raw_hits.append(
                    SinglePulseEvent(
                        time_s=float((offset + width / 2.0) * tsamp_s),
                        width_s=float(width * tsamp_s),
                        snr=float(snrs[offset]),
                        dm=dm,
                    )
                )
        raw_hits.sort(key=lambda event: -event.snr)
        kept = []
        for hit in raw_hits:
            if not any(
                abs(hit.time_s - winner.time_s) <= max(hit.width_s, winner.width_s)
                for winner in kept
            ):
                kept.append(hit)
        results.append(kept)
    return results


@pytest.fixture(scope="session")
def bright_pulsar():
    return Pulsar(name="PSR_TEST", period_s=0.1, dm=50.0, snr=15.0, duty_cycle=0.05)


@pytest.fixture(scope="session")
def pulsar_observation(bright_pulsar):
    """The 7 beams of a pointing containing one bright pulsar in beam 2."""
    simulator = ObservationSimulator(SMALL_CONFIG)
    pointing = single_pulsar_pointing(bright_pulsar, beam=2)
    return simulator.observe(pointing, seed=1)
