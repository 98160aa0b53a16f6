"""The ALFA observation simulator.

Generates the 7-beam dynamic spectra for a pointing: Gaussian radiometer
noise, dispersed pulsar pulse trains (one beam), dispersed transients (one
beam), and the pointing's RFI — which, critically, is injected into *all
seven beams*, because interference enters through the sidelobes.  That
asymmetry is the physical basis of the multibeam coincidence test in
:mod:`repro.arecibo.rfi`.

Scaling note: observations are seconds long instead of the survey's
~270 s per pointing, so binary orbital acceleration is scaled through a
simulation light-speed constant ``C_SIM`` chosen to keep the dimensionless
drift (pulse-frequency change over one observation, in Fourier bins) in
the same regime as the real survey.  The acceleration *search* in
:mod:`repro.arecibo.accelsearch` uses the same constant, so the physics it
exercises — undetectable without trials, recovered with them — is
preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.arecibo.filterbank import Filterbank, dispersion_delay_s
from repro.arecibo.sky import N_BEAMS, Pointing, Pulsar, RFISource, Transient
from repro.core.errors import SearchError

# Simulation light speed (m/s): maps sky-model accelerations (5-25 m/s^2)
# onto frequency drifts of a few Fourier bins over a seconds-long
# observation, matching the real survey's drift-in-bins regime.
C_SIM = 300.0


@dataclass(frozen=True)
class ObservationConfig:
    """Receiver and sampling parameters (laptop-scaled ALFA)."""

    n_channels: int = 64
    n_samples: int = 8192
    tsamp_s: float = 0.0005
    freq_low_mhz: float = 1300.0
    freq_high_mhz: float = 1500.0
    noise_sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.n_channels < 2 or self.n_samples < 16:
            raise SearchError("observation needs >= 2 channels and >= 16 samples")
        if self.freq_high_mhz <= self.freq_low_mhz:
            raise SearchError("need freq_high > freq_low")

    @property
    def duration_s(self) -> float:
        return self.n_samples * self.tsamp_s

    @property
    def channel_freqs_mhz(self) -> np.ndarray:
        edges = np.linspace(self.freq_low_mhz, self.freq_high_mhz, self.n_channels + 1)
        return (edges[:-1] + edges[1:]) / 2.0


def _pulse_profile_amplitudes(
    times_s: np.ndarray,
    period_s: float,
    duty_cycle: float,
    phase0: float,
    drift_fractional: float,
) -> np.ndarray:
    """Gaussian pulse-train amplitude at each sample time (peak 1).

    ``drift_fractional`` applies a linear spin-frequency drift over the
    observation (binary acceleration): phase(t) = f0*t*(1 + d*t/(2*T)).
    """
    f0 = 1.0 / period_s
    total = times_s[-1] if len(times_s) else 1.0
    phase = f0 * times_s * (1.0 + drift_fractional * times_s / (2.0 * max(total, 1e-12)))
    phase = (phase + phase0) % 1.0
    width = duty_cycle / 2.355  # FWHM -> sigma, in phase units
    distance = np.minimum(phase, 1.0 - phase)
    return np.exp(-0.5 * (distance / width) ** 2)


class ObservationSimulator:
    """Renders a pointing into seven filterbanks, with ground truth."""

    def __init__(self, config: Optional[ObservationConfig] = None):
        self.config = config if config is not None else ObservationConfig()

    # -- injections ----------------------------------------------------------
    def _inject_pulsar(
        self,
        data: np.ndarray,
        pulsar: Pulsar,
        freqs: np.ndarray,
        times: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        config = self.config
        drift = pulsar.accel_ms2 * config.duration_s / C_SIM
        phase0 = float(rng.uniform(0, 1))
        # Per-sample amplitude for the target folded S/N: the matched-filter
        # S/N of the dedispersed, folded profile scales as
        # a * sqrt(n_on_samples * n_channels).
        n_on = max(1.0, pulsar.duty_cycle * config.n_samples)
        amplitude = pulsar.snr * config.noise_sigma / np.sqrt(n_on * config.n_channels)
        delays = dispersion_delay_s(pulsar.dm, freqs, ref_mhz=float(freqs.max()))
        for channel, delay in enumerate(delays):
            data[channel] += amplitude * _pulse_profile_amplitudes(
                times - delay, pulsar.period_s, pulsar.duty_cycle, phase0, drift
            )

    def _inject_transient(
        self,
        data: np.ndarray,
        transient: Transient,
        freqs: np.ndarray,
        times: np.ndarray,
    ) -> None:
        config = self.config
        t0 = transient.time_s * config.duration_s  # sky model stores a fraction
        width = max(transient.width_s, config.tsamp_s)
        n_on = max(1.0, width / config.tsamp_s)
        amplitude = transient.snr * config.noise_sigma / np.sqrt(n_on * config.n_channels)
        delays = dispersion_delay_s(transient.dm, freqs, ref_mhz=float(freqs.max()))
        for channel, delay in enumerate(delays):
            data[channel] += amplitude * np.exp(
                -0.5 * ((times - t0 - delay) / width) ** 2
            )

    def _inject_rfi(
        self,
        beams: List[np.ndarray],
        source: RFISource,
        times: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """RFI is common-mode: the same realization lands in every beam."""
        config = self.config
        if source.kind == "periodic":
            phase0 = float(rng.uniform(0, 1))
            n_on = max(1.0, 0.05 * config.n_samples)
            amplitude = source.strength * config.noise_sigma / np.sqrt(
                n_on * config.n_channels
            )
            pattern = amplitude * _pulse_profile_amplitudes(
                times, float(source.period_s), 0.05, phase0, 0.0
            )
            for data in beams:
                data += pattern  # undispersed: identical in every channel
        elif source.kind == "narrowband":
            tone = source.strength * config.noise_sigma * np.abs(
                rng.normal(0.6, 0.2, size=len(times))
            )
            for data in beams:
                for channel in source.channels:
                    if 0 <= channel < config.n_channels:
                        data[channel] += tone
        else:  # impulsive
            count = rng.poisson(source.rate_per_obs)
            spike_samples = rng.integers(0, config.n_samples, size=count)
            for sample in spike_samples:
                for data in beams:
                    data[:, sample] += source.strength * config.noise_sigma
        return None

    # -- observation ---------------------------------------------------------
    def observe(self, pointing: Pointing, seed: int = 0) -> List[Filterbank]:
        """Produce the 7 per-beam filterbanks for one pointing."""
        config = self.config
        rng = np.random.default_rng(seed)
        freqs = config.channel_freqs_mhz
        times = np.arange(config.n_samples) * config.tsamp_s
        beams = [
            rng.normal(0.0, config.noise_sigma, size=(config.n_channels, config.n_samples))
            for _ in range(N_BEAMS)
        ]
        for beam_index in range(N_BEAMS):
            for pulsar in pointing.pulsars_by_beam[beam_index]:
                self._inject_pulsar(beams[beam_index], pulsar, freqs, times, rng)
            for transient in pointing.transients_by_beam[beam_index]:
                self._inject_transient(beams[beam_index], transient, freqs, times)
        for source in pointing.rfi:
            self._inject_rfi(beams, source, times, rng)
        # Each float64 beam is released as soon as its float32 copy exists,
        # so the conversion never holds both whole sets at once.
        filterbanks = []
        for beam_index in range(N_BEAMS):
            data, beams[beam_index] = beams[beam_index], None
            filterbanks.append(
                Filterbank(
                    data=data.astype(np.float32),
                    freq_low_mhz=config.freq_low_mhz,
                    freq_high_mhz=config.freq_high_mhz,
                    tsamp_s=config.tsamp_s,
                    pointing_id=pointing.pointing_id,
                    beam=beam_index,
                )
            )
        return filterbanks
