"""C2 — periodicity-search sensitivity (Section 2.1).

Paper claims regenerated here:
* the processing chain is "data unpacking, dedispersion, Fourier analysis,
  harmonic summing, threshold tests to identify candidates" — harmonic
  summing exists because it buys sensitivity to short-duty-cycle pulsars;
* dedispersion uses "about 1000 different trial values of the dispersion
  measure" — too coarse a grid loses signal-to-noise at wrong trial DMs.

C2a is a controlled experiment: on-bin pulse trains of varying duty cycle,
measuring the detection statistic per harmonic-ladder depth.  Narrow
pulses spread power across harmonics, so summing wins exactly there — and
buys nothing for near-sinusoidal signals.  C2b sweeps the DM grid.
"""

import numpy as np

from repro.arecibo.candidates import match_to_truth, sift
from repro.arecibo.dedisperse import DMGrid, dedisperse
from repro.arecibo.fourier import harmonic_sum, power_spectrum, search_spectrum, summed_snr
from repro.arecibo.sky import Pulsar
from repro.arecibo.telescope import ObservationConfig, ObservationSimulator
from tests.arecibo.conftest import single_pulsar_pointing

CONFIG = ObservationConfig(n_channels=48, n_samples=4096)

N_SAMPLES = 4096
TSAMP = 0.0005
FUND_BIN = 31  # f0 = 32 / (n * tsamp): exactly on a Fourier bin


def observe_pulsar(period_s, dm, snr, duty_cycle, seed):
    pulsar = Pulsar(
        name="C2", period_s=period_s, dm=dm, snr=snr, duty_cycle=duty_cycle
    )
    beams = ObservationSimulator(CONFIG).observe(
        single_pulsar_pointing(pulsar, beam=0), seed=seed
    )
    return beams[0], pulsar


def _pulse_train(duty_cycle, amplitude, seed):
    rng = np.random.default_rng(seed)
    total_time = N_SAMPLES * TSAMP
    f0 = 32 / total_time
    times = np.arange(N_SAMPLES) * TSAMP
    phase = (times * f0) % 1.0
    width = duty_cycle / 2.355
    pulse = np.exp(-0.5 * (np.minimum(phase, 1 - phase) / width) ** 2)
    return rng.normal(size=N_SAMPLES) + amplitude * pulse


def harmonic_ladder_rows(n_trials=12):
    """Detection statistic at the fundamental per ladder depth x duty cycle."""
    rows = []
    for duty_cycle, amplitude in ((0.25, 0.25), (0.05, 0.6), (0.02, 1.2)):
        snr_by_depth = {}
        for depth in (1, 2, 4, 8, 16):
            values = []
            for seed in range(n_trials):
                spectrum = power_spectrum(_pulse_train(duty_cycle, amplitude, seed))
                values.append(
                    float(summed_snr(harmonic_sum(spectrum, depth), depth)[FUND_BIN])
                )
            snr_by_depth[depth] = float(np.mean(values))
        best_depth = max(snr_by_depth, key=snr_by_depth.get)
        rows.append(
            {
                "duty cycle": duty_cycle,
                **{f"h={d}": f"{snr_by_depth[d]:.1f}" for d in (1, 2, 4, 8, 16)},
                "best ladder": best_depth,
            }
        )
    return rows


def end_to_end_rows(n_trials=10):
    """Recovery of short-duty-cycle pulsars through the real search chain."""
    rows = []
    for harmonics in ((1,), (1, 2, 4), (1, 2, 4, 8, 16)):
        recovered = 0
        best_snrs = []
        for seed in range(n_trials):
            filterbank, pulsar = observe_pulsar(
                0.085 + 0.012 * seed, 45.0, 12.0, 0.03, seed
            )
            series = dedisperse(filterbank, pulsar.dm)
            candidates = search_spectrum(
                series, filterbank.tsamp_s, pulsar.dm,
                snr_threshold=6.0, harmonics=harmonics,
            )
            match = match_to_truth(sift(candidates), pulsar.period_s,
                                   freq_tolerance=0.03)
            if match is not None:
                recovered += 1
                best_snrs.append(match.snr)
        rows.append(
            {
                "ladder": f"h<={max(harmonics)}",
                "recovered": f"{recovered}/{n_trials}",
                "mean matched S/N": f"{np.mean(best_snrs):.1f}" if best_snrs else "-",
            }
        )
    return rows


def dm_grid_rows():
    """Recovered S/N vs DM-grid resolution."""
    filterbank, pulsar = observe_pulsar(0.1, 50.0, 15.0, 0.05, seed=3)
    rows = []
    for n_trials in (4, 16, 64, 128):
        grid = DMGrid.linear(0.0, 100.0, n_trials)
        series = dedisperse(filterbank, grid.nearest_trial(pulsar.dm))
        candidates = search_spectrum(series, filterbank.tsamp_s, pulsar.dm,
                                     snr_threshold=5.0)
        match = match_to_truth(sift(candidates), pulsar.period_s,
                               freq_tolerance=0.03)
        rows.append(
            {
                "DM trials": n_trials,
                "DM step": f"{100.0 / (n_trials - 1):.1f}",
                "recovered S/N": f"{match.snr:.1f}" if match else "missed",
            }
        )
    return rows


def test_c2_harmonic_summing_controlled(report_rows):
    rows = harmonic_ladder_rows()
    # Narrow pulses want deep ladders; broad pulses do not.
    narrow = rows[-1]
    broad = rows[0]
    assert narrow["best ladder"] >= 4
    assert broad["best ladder"] <= 2
    assert float(narrow["h=8"]) > float(narrow["h=1"])
    report_rows("C2a: harmonic summing vs duty cycle (controlled)", rows)


def test_c2_harmonic_summing_end_to_end(report_rows):
    rows = end_to_end_rows()
    recovered = [int(row["recovered"].split("/")[0]) for row in rows]
    # The full ladder never loses pulsars, and gains on this population.
    assert recovered[-1] >= recovered[0]
    snr_first = float(rows[0]["mean matched S/N"]) if rows[0]["mean matched S/N"] != "-" else 0.0
    snr_last = float(rows[-1]["mean matched S/N"]) if rows[-1]["mean matched S/N"] != "-" else 0.0
    assert snr_last >= snr_first
    report_rows("C2a': harmonic summing, end-to-end recovery", rows)


def test_c2_dm_grid_resolution(report_rows):
    rows = dm_grid_rows()
    snrs = [
        float(row["recovered S/N"]) if row["recovered S/N"] != "missed" else 0.0
        for row in rows
    ]
    # Finer grids recover more signal-to-noise (the 1000-trial rationale).
    assert snrs[-1] > snrs[0]
    assert snrs[-1] > 10
    report_rows("C2b: DM-grid resolution", rows)
