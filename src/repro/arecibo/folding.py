"""Candidate folding.

"Reprocessing of dedispersed time series to signal average at the spin
period of a candidate signal" — folding stacks the time series modulo the
candidate period; a real pulsar's pulses align into a sharp profile whose
matched-filter S/N confirms (or kills) the Fourier detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.errors import KernelError, SearchError
from repro.core.kernels import fold_block


@dataclass(frozen=True)
class FoldedProfile:
    """The phase-averaged pulse profile of one fold."""

    period_s: float
    profile: np.ndarray   # (n_bins,) mean intensity per phase bin
    hits: np.ndarray      # (n_bins,) samples contributing per bin
    sample_std: float     # robust (MAD-based) std of the unfolded series

    @property
    def n_bins(self) -> int:
        return len(self.profile)

    def snr(self) -> float:
        """Matched-filter S/N of the profile peak.

        The baseline comes from the lower half of the sorted bins (so a
        bright pulse does not poison its own estimate); the per-bin noise
        is analytic — ``sample_std / sqrt(samples per bin)`` — rather than
        estimated from the handful of off-pulse bins, which keeps the
        statistic calibrated (folded noise stays near the Gaussian
        expectation instead of fluctuating with the baseline estimator).
        """
        profile = self.profile
        order = np.argsort(profile)
        baseline_bins = order[: max(2, self.n_bins // 2)]
        baseline = float(profile[baseline_bins].mean())
        occupied = self.hits[self.hits > 0]
        if self.sample_std <= 0 or len(occupied) == 0:
            raise SearchError("degenerate folded profile (zero off-pulse noise)")
        bin_noise = self.sample_std / np.sqrt(float(np.median(occupied)))
        best_bin = int(order[-1])
        return float((profile[best_bin] - baseline) / bin_noise)


def fold(
    timeseries: np.ndarray,
    tsamp_s: float,
    period_s: float,
    n_bins: int = 32,
) -> FoldedProfile:
    """Fold a time series at a trial period."""
    series = np.asarray(timeseries, dtype=np.float64)
    if series.ndim != 1 or len(series) < n_bins:
        raise SearchError("time series too short to fold at this resolution")
    if period_s <= 0 or tsamp_s <= 0:
        raise SearchError("period and sampling time must be positive")
    if period_s < n_bins * tsamp_s / 4:
        n_bins = max(4, int(period_s / tsamp_s))
    times = np.arange(len(series)) * tsamp_s
    phase_bins = ((times % period_s) / period_s * n_bins).astype(np.int64) % n_bins
    profile = np.zeros(n_bins, dtype=np.float64)
    hits = np.zeros(n_bins, dtype=np.int64)
    np.add.at(profile, phase_bins, series)
    np.add.at(hits, phase_bins, 1)
    occupied = hits > 0
    profile[occupied] /= hits[occupied]
    # Robust scale estimate: a bright pulse (or residual RFI) must not
    # inflate its own noise floor.
    mad = float(np.median(np.abs(series - np.median(series))))
    robust_std = 1.4826 * mad if mad > 0 else float(series.std())
    return FoldedProfile(
        period_s=period_s,
        profile=profile,
        hits=hits,
        sample_std=robust_std,
    )


def fold_many(
    timeseries: np.ndarray,
    tsamp_s: float,
    periods: Sequence[float],
    n_bins: int = 32,
) -> List[FoldedProfile]:
    """Fold one series at many trial periods in one batched pass.

    Equivalent to ``[fold(timeseries, tsamp_s, p, n_bins) for p in
    periods]`` bitwise: trials are grouped by their *effective* bin count
    (``fold`` shrinks ``n_bins`` for short periods) and each group runs
    through the :func:`repro.core.kernels.fold_block` scatter-add, whose
    accumulation order matches ``np.add.at``.  The robust scale estimate
    depends only on the series, so it is computed once.
    """
    series = np.asarray(timeseries, dtype=np.float64)
    periods = [float(period_s) for period_s in periods]
    if series.ndim != 1 or len(series) < n_bins:
        raise SearchError("time series too short to fold at this resolution")
    if tsamp_s <= 0:
        raise SearchError("period and sampling time must be positive")
    effective_bins: List[int] = []
    for period_s in periods:
        if period_s <= 0:
            raise SearchError("period and sampling time must be positive")
        bins = n_bins
        if period_s < n_bins * tsamp_s / 4:
            bins = max(4, int(period_s / tsamp_s))
        effective_bins.append(bins)
    mad = float(np.median(np.abs(series - np.median(series))))
    robust_std = 1.4826 * mad if mad > 0 else float(series.std())
    groups: dict = {}
    for index, bins in enumerate(effective_bins):
        groups.setdefault(bins, []).append(index)
    profiles: List[FoldedProfile] = [None] * len(periods)  # type: ignore[list-item]
    for bins, indices in groups.items():
        trial_periods = np.asarray([periods[i] for i in indices], dtype=np.float64)
        try:
            block_profiles, block_hits = fold_block(
                series, tsamp_s, trial_periods, bins
            )
        except KernelError as exc:
            raise SearchError(str(exc)) from exc
        for row, index in enumerate(indices):
            profiles[index] = FoldedProfile(
                period_s=float(periods[index]),
                profile=block_profiles[row],
                hits=block_hits[row],
                sample_std=robust_std,
            )
    return profiles


def refine_period(
    timeseries: np.ndarray,
    tsamp_s: float,
    period_s: float,
    search_fraction: float = 0.002,
    n_trials: int = 21,
    n_bins: int = 32,
) -> Tuple[float, float]:
    """Local period optimization around a candidate.

    Folds at ``n_trials`` periods within ±``search_fraction`` of the seed
    and returns (best period, best S/N) — the confirmation step performed
    "during the same telescope session" for promising candidates.  The
    trial folds run as one :func:`fold_many` batch; the selection loop
    (strict ``>`` — earlier trials win ties) matches
    :func:`refine_period_reference` exactly.
    """
    if n_trials < 1:
        raise SearchError("need at least one refinement trial")
    trials = np.linspace(
        period_s * (1 - search_fraction), period_s * (1 + search_fraction), n_trials
    )
    folded = fold_many(
        timeseries, tsamp_s, [float(trial) for trial in trials], n_bins=n_bins
    )
    best_period, best_snr = period_s, -np.inf
    for trial, profile in zip(trials, folded):
        snr = profile.snr()
        if snr > best_snr:
            best_period, best_snr = float(trial), float(snr)
    return best_period, best_snr


def refine_period_reference(
    timeseries: np.ndarray,
    tsamp_s: float,
    period_s: float,
    search_fraction: float = 0.002,
    n_trials: int = 21,
    n_bins: int = 32,
) -> Tuple[float, float]:
    """The naive per-trial fold loop :func:`refine_period` replaces.

    Retained as the equivalence oracle.
    """
    if n_trials < 1:
        raise SearchError("need at least one refinement trial")
    best_period, best_snr = period_s, -np.inf
    for trial in np.linspace(
        period_s * (1 - search_fraction), period_s * (1 + search_fraction), n_trials
    ):
        snr = fold(timeseries, tsamp_s, float(trial), n_bins=n_bins).snr()
        if snr > best_snr:
            best_period, best_snr = float(trial), float(snr)
    return best_period, best_snr
