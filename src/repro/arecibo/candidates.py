"""Candidate sifting.

A raw Fourier search of ~10^3 DM trials emits many redundant detections:
the same pulsar at neighbouring DM trials, at its harmonics, and at
adjacent spectral bins.  Sifting collapses these into one candidate per
underlying signal, keeping the best-S/N instance and recording how many
trials supported it (DM-coherence, used later as a quality cut — real
dispersed signals peak at a nonzero DM, RFI peaks at DM 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.arecibo.fourier import FourierCandidate
from repro.core.errors import SearchError


@dataclass(frozen=True)
class SiftedCandidate:
    """One distinct periodic signal after sifting."""

    period_s: float
    freq_hz: float
    snr: float
    dm: float
    n_harmonics: int
    n_dm_hits: int          # how many DM trials detected it
    snr_dm0: float = 0.0    # best S/N of this signal at DM ~ 0
    accel_ms2: float = 0.0  # best trial acceleration (binary candidates)
    pointing_id: int = -1
    beam: int = -1

    @property
    def is_dispersed(self) -> bool:
        """Peak significance at a clearly nonzero DM."""
        return self.dm > 1.0

    def dm0_ratio(self) -> float:
        """S/N at DM 0 relative to the peak — the classic RFI test.

        An undispersed (terrestrial) signal is about as strong at DM 0 as
        anywhere; a genuinely dispersed pulsar loses significance there.
        """
        return self.snr_dm0 / self.snr if self.snr > 0 else 0.0


def _is_harmonic(fundamental_hz: float, other_hz: float, tol: float) -> bool:
    """True when ``other`` is an integer multiple/submultiple of ``fundamental``."""
    if fundamental_hz <= 0 or other_hz <= 0:
        return False
    ratio = other_hz / fundamental_hz
    if ratio < 1:
        ratio = 1.0 / ratio
    nearest = round(ratio)
    if nearest < 2:
        return False
    return abs(ratio - nearest) <= tol * nearest


def sift(
    candidates: Sequence[FourierCandidate],
    freq_tolerance: float = 0.01,
    harmonic_tolerance: float = 0.01,
    reject_harmonics: bool = True,
    dm0_cutoff: float = 1.0,
) -> List[SiftedCandidate]:
    """Collapse duplicates across DM trials and the harmonic ladder.

    Each sifted candidate also records its best S/N among trials with
    DM <= ``dm0_cutoff`` (the DM-0 comparison test used to flag
    undispersed terrestrial signals downstream).  Returns the distinct
    signals, strongest first.
    """
    if freq_tolerance <= 0:
        raise SearchError("frequency tolerance must be positive")
    ordered = sorted(candidates, key=lambda c: -c.snr)
    groups: List[List[FourierCandidate]] = []
    leader_freqs: List[float] = []  # groups[i][0].freq_hz
    for candidate in ordered:
        freq = candidate.freq_hz
        # A candidate joins the first (strongest) group whose leader it is
        # within tolerance of.  ~10^5 pairs a pass, hence plain floats and
        # max(leader, freq) spelled as a conditional (the builtin is most
        # of a pair's cost).
        for group, leader in zip(groups, leader_freqs):
            if abs(leader - freq) <= freq_tolerance * (
                freq if freq > leader else leader
            ):
                group.append(candidate)
                break
        else:
            groups.append([candidate])
            leader_freqs.append(freq)

    sifted: List[SiftedCandidate] = []
    for group in groups:
        leader = group[0]
        dm_hits = len({round(member.dm, 3) for member in group})
        snr_dm0 = max(
            (member.snr for member in group if member.dm <= dm0_cutoff), default=0.0
        )
        sifted.append(
            SiftedCandidate(
                period_s=leader.period_s,
                freq_hz=leader.freq_hz,
                snr=leader.snr,
                dm=leader.dm,
                n_harmonics=leader.n_harmonics,
                n_dm_hits=dm_hits,
                snr_dm0=snr_dm0,
                accel_ms2=getattr(leader, "accel_ms2", 0.0),
                pointing_id=leader.pointing_id,
                beam=leader.beam,
            )
        )

    if reject_harmonics:
        sifted = _reject_harmonics(sifted, harmonic_tolerance)
    sifted.sort(key=lambda c: -c.snr)
    return sifted


def _reject_harmonics(
    candidates: List[SiftedCandidate], tolerance: float
) -> List[SiftedCandidate]:
    """Drop candidates that are integer harmonics of a stronger candidate."""
    by_snr = sorted(candidates, key=lambda c: -c.snr)
    kept: List[SiftedCandidate] = []
    for candidate in by_snr:
        if any(
            _is_harmonic(winner.freq_hz, candidate.freq_hz, tolerance)
            for winner in kept
        ):
            continue
        kept.append(candidate)
    return kept


def match_to_truth(
    candidates: Iterable[SiftedCandidate],
    true_period_s: float,
    freq_tolerance: float = 0.02,
    max_harmonic: int = 8,
) -> Optional[SiftedCandidate]:
    """Find the candidate matching a known injected period (for scoring).

    Harmonically related detections (the search finding 2f or f/2) count
    as recoveries, as they do in real surveys — but only up to
    ``max_harmonic``, and with an *absolute* tolerance on the harmonic
    ratio, so a noise bin at a large frequency cannot accidentally
    "match" as the 40th harmonic.
    """
    true_freq = 1.0 / true_period_s
    best: Optional[SiftedCandidate] = None
    for candidate in candidates:
        ratio = candidate.freq_hz / true_freq
        inverted = 1.0 / ratio if ratio < 1 else ratio
        nearest = round(inverted)
        if (
            1 <= nearest <= max_harmonic
            and abs(inverted - nearest) <= freq_tolerance
        ):
            if best is None or candidate.snr > best.snr:
                best = candidate
    return best
