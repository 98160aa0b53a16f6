"""Shared fixtures for Arecibo tests: small observations with known truth."""

import numpy as np
import pytest

from repro.arecibo.singlepulse import DEFAULT_WIDTHS, SinglePulseEvent, boxcar_snr
from repro.arecibo.sky import N_BEAMS, Pointing, Pulsar
from repro.arecibo.telescope import ObservationConfig, ObservationSimulator


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


def per_series_single_pulse_search(
    block, tsamp_s, dms, snr_threshold=6.0, widths=DEFAULT_WIDTHS
):
    """Single-pulse search as one ``boxcar_snr`` call per series per width.

    The oracle for the block search (and C16's baseline): every median, MAD
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
