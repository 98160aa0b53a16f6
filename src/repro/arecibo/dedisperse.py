"""Incoherent dedispersion over a trial-DM grid.

"Dedispersion entails summing over the frequency channels with about 1000
different trial values of the dispersion measure, each yielding a time
series of length equal to the original number of time samples.  These time
series require storage about equal to that of the original raw data."

:func:`dedisperse` produces one trial's time series; :func:`dedisperse_all`
the full (n_trials x n_samples) block, whose byte size demonstrably ~equals
the raw filterbank's when ``len(grid) == n_channels`` — the storage claim
quantified in experiment FIG1.

The full-grid path is batched: dispersion delay is linear in DM, so the
per-channel frequency term is computed once and scaled into the whole
``(n_trials, n_channels)`` integer shift matrix (:func:`delay_matrix`),
which is handed to the :func:`repro.core.kernels.shift_sum` gather kernel.
:func:`dedisperse_all_reference` keeps the naive per-trial ``np.roll``
loop; the two are asserted bitwise-equal in the equivalence suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.arecibo.filterbank import KDM, Filterbank, dispersion_delay_s
from repro.core.errors import KernelError, SearchError
from repro.core.kernels import shift_sum
from repro.core.units import DataSize


def delay_samples(filterbank: Filterbank, dm: float) -> np.ndarray:
    """Per-channel dispersion delay in (integer) samples, w.r.t. the top
    of the band."""
    delays = dispersion_delay_s(
        dm, filterbank.channel_freqs_mhz, ref_mhz=filterbank.freq_high_mhz
    )
    return np.round(delays / filterbank.tsamp_s).astype(np.int64)


def delay_matrix(filterbank: Filterbank, dms: Sequence[float]) -> np.ndarray:
    """Integer shift matrix ``(n_trials, n_channels)`` for a DM sequence.

    Row ``t`` is bitwise-equal to ``delay_samples(filterbank, dms[t])``:
    the per-channel frequency term of the dispersion law is hoisted out of
    the trial loop, and the remaining ``(KDM * dm) * term / tsamp``
    product is evaluated in the same association order as
    :func:`~repro.arecibo.filterbank.dispersion_delay_s`, so rounding can
    never disagree between the batched and per-trial paths.
    """
    trials = np.asarray(dms, dtype=np.float64)
    if trials.ndim != 1:
        raise SearchError("DM trials must be a 1-D sequence")
    if np.any(trials < 0):
        raise SearchError("DM trials cannot be negative")
    freq_term = filterbank.channel_freqs_mhz ** -2 - filterbank.freq_high_mhz ** -2
    delays = (KDM * trials)[:, None] * freq_term[None, :]
    return np.round(delays / filterbank.tsamp_s).astype(np.int64)


def dedisperse(filterbank: Filterbank, dm: float) -> np.ndarray:
    """Shift-and-sum the channels at one trial DM.

    Returns the frequency-averaged time series (length ``n_samples``);
    samples shifted past the end wrap, which is harmless for the short
    synthetic observations and keeps lengths uniform as the paper states.
    """
    shifts = delay_samples(filterbank, dm)
    accumulator = np.zeros(filterbank.n_samples, dtype=np.float64)
    for channel in range(filterbank.n_channels):
        accumulator += np.roll(filterbank.data[channel], -int(shifts[channel]))
    return accumulator / filterbank.n_channels


@dataclass(frozen=True)
class DMGrid:
    """A trial-DM grid."""

    trials: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.trials:
            raise SearchError("DM grid needs at least one trial")
        if any(dm < 0 for dm in self.trials):
            raise SearchError("DM trials cannot be negative")
        if list(self.trials) != sorted(self.trials):
            raise SearchError("DM trials must be ascending")
        # Cached ascending array for searchsorted lookups; not a dataclass
        # field, so equality/hash/repr stay defined by `trials` alone.
        object.__setattr__(
            self, "_trials_array", np.asarray(self.trials, dtype=np.float64)
        )

    def __len__(self) -> int:
        return len(self.trials)

    @classmethod
    def linear(cls, dm_min: float, dm_max: float, n_trials: int) -> "DMGrid":
        if n_trials < 1 or dm_max < dm_min:
            raise SearchError("bad DM grid parameters")
        return cls(trials=tuple(np.linspace(dm_min, dm_max, n_trials).tolist()))

    @classmethod
    def matched(cls, filterbank: Filterbank, dm_max: float) -> "DMGrid":
        """Step size matched to one sample of differential delay across the
        band — the survey's "about 1000 trial values" rule, scaled."""
        unit_delay = dispersion_delay_s(
            1.0,
            np.array([filterbank.freq_low_mhz]),
            ref_mhz=filterbank.freq_high_mhz,
        )[0]
        step = filterbank.tsamp_s / unit_delay
        n_trials = max(2, int(np.ceil(dm_max / step)) + 1)
        return cls.linear(0.0, dm_max, n_trials)

    def nearest_trial(self, dm: float) -> float:
        """The grid trial closest to ``dm``; ties go to the lower trial.

        Binary search over the (validated-ascending) grid instead of an
        O(n) ``min`` scan — this is called once per candidate during
        sifting, against grids of hundreds of trials.
        """
        trials: np.ndarray = self._trials_array  # type: ignore[attr-defined]
        index = int(np.searchsorted(trials, dm))
        if index <= 0:
            return self.trials[0]
        if index >= len(self.trials):
            return self.trials[-1]
        lower, upper = self.trials[index - 1], self.trials[index]
        # `<=` matches the old linear min(): first (lower) trial wins ties.
        return lower if dm - lower <= upper - dm else upper


def dedisperse_all(filterbank: Filterbank, grid: DMGrid) -> np.ndarray:
    """All trials: (n_trials, n_samples) float32 block.

    One batched gather over the delay matrix — bitwise identical to
    :func:`dedisperse_all_reference` (same per-channel accumulation order,
    same float64 -> float32 cast), several times faster.
    """
    shifts = delay_matrix(filterbank, grid.trials)
    try:
        block = shift_sum(filterbank.data, shifts)
    except KernelError as exc:
        raise SearchError(str(exc)) from exc
    block /= filterbank.n_channels  # in place: no second float64 block
    return block.astype(np.float32)


def dedisperse_all_reference(filterbank: Filterbank, grid: DMGrid) -> np.ndarray:
    """The naive per-trial loop :func:`dedisperse_all` replaces.

    Retained as the equivalence oracle.
    """
    block = np.empty((len(grid), filterbank.n_samples), dtype=np.float32)
    for index, dm in enumerate(grid.trials):
        block[index] = dedisperse(filterbank, dm)
    return block


def dedispersed_size(filterbank: Filterbank, grid: DMGrid) -> DataSize:
    """Bytes of the full trial block — the intermediate-storage cost."""
    return DataSize.from_bytes(float(len(grid) * filterbank.n_samples * 4))
