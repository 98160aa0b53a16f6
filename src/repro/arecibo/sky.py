"""Synthetic sky model: pulsars, transients, and terrestrial interference.

Ground truth for the survey simulator.  Each pointing of the 7-beam ALFA
receiver sees: (a) zero or more pulsars — point sources, present in exactly
one beam; (b) occasional one-off transients; and (c) radio frequency
interference, which enters through the sidelobes and therefore appears in
*all seven beams at once* and recurs across pointings — the two facts the
paper's meta-analysis exploits to cull it ("a meta-analysis is needed to
cull those candidates that appear in multiple directions on the sky").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.errors import SearchError

N_BEAMS = 7  # the ALFA feed array


@dataclass(frozen=True)
class Pulsar:
    """A pulsar: spin period, dispersion measure, brightness, binary drift."""

    name: str
    period_s: float
    dm: float                 # pc cm^-3
    snr: float                # target folded signal-to-noise in one pointing
    duty_cycle: float = 0.05  # pulse width as a fraction of the period
    accel_ms2: float = 0.0    # line-of-sight acceleration (binary systems)

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise SearchError(f"{self.name}: period must be positive")
        if self.dm < 0:
            raise SearchError(f"{self.name}: DM cannot be negative")
        if not 0 < self.duty_cycle < 0.5:
            raise SearchError(f"{self.name}: duty cycle must be in (0, 0.5)")


@dataclass(frozen=True)
class Transient:
    """A one-off dispersed pulse (the 'transient signals that may be
    associated with astrophysical objects other than pulsars')."""

    name: str
    time_s: float
    dm: float
    snr: float
    width_s: float = 0.003


@dataclass(frozen=True)
class RFISource:
    """Terrestrial interference.

    ``periodic`` sources (radar, power-line harmonics) mimic pulsars
    uncannily well but appear at DM ~ 0 in all beams; ``narrowband``
    sources park on a few channels; ``impulsive`` sources splash broadband
    spikes."""

    name: str
    kind: str  # "periodic" | "narrowband" | "impulsive"
    strength: float = 8.0
    period_s: Optional[float] = None        # periodic
    channels: Tuple[int, ...] = ()          # narrowband
    rate_per_obs: float = 3.0               # impulsive

    def __post_init__(self) -> None:
        if self.kind not in ("periodic", "narrowband", "impulsive"):
            raise SearchError(f"unknown RFI kind {self.kind!r}")
        if self.kind == "periodic" and (self.period_s is None or self.period_s <= 0):
            raise SearchError(f"{self.name}: periodic RFI needs a positive period")
        if self.kind == "narrowband" and not self.channels:
            raise SearchError(f"{self.name}: narrowband RFI needs channels")


@dataclass
class Pointing:
    """One telescope pointing: a sky position with its per-beam sources."""

    pointing_id: int
    pulsars_by_beam: Tuple[Tuple[Pulsar, ...], ...]  # length N_BEAMS
    transients_by_beam: Tuple[Tuple[Transient, ...], ...]
    rfi: Tuple[RFISource, ...]  # RFI hits all beams

    def __post_init__(self) -> None:
        if len(self.pulsars_by_beam) != N_BEAMS:
            raise SearchError(f"pointing needs {N_BEAMS} beams of pulsars")
        if len(self.transients_by_beam) != N_BEAMS:
            raise SearchError(f"pointing needs {N_BEAMS} beams of transients")

    def all_pulsars(self) -> List[Pulsar]:
        return [p for beam in self.pulsars_by_beam for p in beam]

    def beam_of(self, pulsar_name: str) -> int:
        for beam_index, beam in enumerate(self.pulsars_by_beam):
            if any(p.name == pulsar_name for p in beam):
                return beam_index
        raise SearchError(f"no pulsar {pulsar_name!r} in this pointing")


@dataclass
class SkyModel:
    """Generates a survey's worth of pointings with known ground truth."""

    pulsar_fraction: float = 0.35      # pointings containing a pulsar
    binary_fraction: float = 0.25      # of pulsars that are in binaries
    transient_rate: float = 0.15       # transients per pointing
    rfi_environment: Sequence[RFISource] = field(
        default_factory=lambda: DEFAULT_RFI_ENVIRONMENT
    )
    period_range_s: Tuple[float, float] = (0.02, 0.5)
    dm_range: Tuple[float, float] = (10.0, 90.0)
    snr_range: Tuple[float, float] = (9.0, 30.0)
    seed: int = 0

    def generate_pointings(self, count: int) -> List[Pointing]:
        rng = random.Random(self.seed)
        pointings = []
        pulsar_counter = 0
        for pointing_id in range(count):
            pulsars: List[List[Pulsar]] = [[] for _ in range(N_BEAMS)]
            transients: List[List[Transient]] = [[] for _ in range(N_BEAMS)]
            if rng.random() < self.pulsar_fraction:
                pulsar_counter += 1
                beam = rng.randrange(N_BEAMS)
                accel = 0.0
                if rng.random() < self.binary_fraction:
                    accel = rng.uniform(5.0, 25.0) * rng.choice([-1.0, 1.0])
                pulsars[beam].append(
                    Pulsar(
                        name=f"PSR_J{pointing_id:04d}+{pulsar_counter:02d}",
                        period_s=rng.uniform(*self.period_range_s),
                        dm=rng.uniform(*self.dm_range),
                        snr=rng.uniform(*self.snr_range),
                        duty_cycle=rng.uniform(0.03, 0.08),
                        accel_ms2=accel,
                    )
                )
            if rng.random() < self.transient_rate:
                beam = rng.randrange(N_BEAMS)
                transients[beam].append(
                    Transient(
                        name=f"TRANS_{pointing_id:04d}",
                        time_s=rng.uniform(0.2, 0.8),  # fraction of obs; scaled later
                        dm=rng.uniform(*self.dm_range),
                        snr=rng.uniform(10.0, 25.0),
                    )
                )
            # RFI recurs: each environment source afflicts a pointing with
            # high probability, which is what makes it cullable by
            # cross-pointing coincidence.
            rfi = tuple(
                source for source in self.rfi_environment if rng.random() < 0.8
            )
            pointings.append(
                Pointing(
                    pointing_id=pointing_id,
                    pulsars_by_beam=tuple(tuple(beam) for beam in pulsars),
                    transients_by_beam=tuple(tuple(beam) for beam in transients),
                    rfi=rfi,
                )
            )
        return pointings


DEFAULT_RFI_ENVIRONMENT: Tuple[RFISource, ...] = (
    RFISource(name="airport-radar", kind="periodic", period_s=0.1234, strength=12.0),
    RFISource(name="powerline-chatter", kind="periodic", period_s=1.0 / 60.0, strength=7.0),
    RFISource(name="carrier-1402MHz", kind="narrowband", channels=(11, 12), strength=10.0),
    RFISource(name="lightning", kind="impulsive", rate_per_obs=2.0, strength=9.0),
)
