"""Ablation — what each candidate-culling defence contributes.

The paper's pipeline stacks "tests of different kinds" (Section 2.1).
This ablation processes one survey slice once, then re-runs the
meta-analysis with each defence disabled in turn, measuring pulsar recall
and the surviving false-candidate load.  A defence earns its place by
cutting falses without costing recall.
"""

import numpy as np

from repro.arecibo.candidates import SiftedCandidate, match_to_truth, sift
from repro.arecibo.dedisperse import DMGrid, dedisperse, dedisperse_all
from repro.arecibo.folding import refine_period
from repro.arecibo.fourier import search_dm_block
from repro.arecibo.metaanalysis import CandidateDatabase
from repro.arecibo.rfi import clean_filterbank, multibeam_coincidence
from repro.arecibo.sky import SkyModel
from repro.arecibo.telescope import ObservationConfig, ObservationSimulator

CONFIG = ObservationConfig(n_channels=48, n_samples=4096)
SKY = SkyModel(
    seed=41,
    pulsar_fraction=0.6,
    binary_fraction=0.0,
    period_range_s=(0.03, 0.12),
    snr_range=(15.0, 30.0),
)

FULL = {"max_pointings": 2, "min_dm": 1.0, "dm0_ratio": 0.95,
        "harmonic_window_hz": 0.35}
NO_CULLS = {"max_pointings": 7, "min_dm": 0.0, "dm0_ratio": 10.0,
            "harmonic_window_hz": 0.0}
# (label, cull params, min_dm_hits, fold threshold).  The per-cull
# ablations run with fold confirmation OFF: fold is strong enough to
# shadow the cheaper tests on easy slices, so their individual value only
# shows against the un-folded candidate stream (and fold is expensive — it
# re-reads and re-dedisperses the raw data per candidate, which is why the
# cheap metadata-only culls run first in the real pipeline).
VARIANTS = (
    ("full stack (culls + fold)", FULL, 10, 6.5),
    ("fold only", NO_CULLS, 1, 6.5),
    ("culls only, no fold", FULL, 10, 0.0),
    ("  - cross-pointing cull", {**FULL, "max_pointings": 7}, 10, 0.0),
    ("  - harmonic zapping", {**FULL, "harmonic_window_hz": 0.0}, 10, 0.0),
    ("  - low-DM / DM-0 tests", {**FULL, "min_dm": 0.0, "dm0_ratio": 10.0}, 10, 0.0),
    ("  - DM-coherence cut", FULL, 1, 0.0),
    ("no defences at all", NO_CULLS, 1, 0.0),
)


def process_survey(n_pointings=4):
    """One pass of observe + search + sift + multibeam; returns
    (sifted candidates, injected pulsars, observations for folding)."""
    pointings = SKY.generate_pointings(n_pointings)
    simulator = ObservationSimulator(CONFIG)
    rng = np.random.default_rng(3)
    all_sifted = []
    observations = {}
    for pointing in pointings:
        beams = simulator.observe(pointing, seed=50 + pointing.pointing_id)
        observations[pointing.pointing_id] = beams
        per_beam = []
        grid = None
        for filterbank in beams:
            cleaned, _ = clean_filterbank(filterbank, rng=rng)
            if grid is None:
                grid = DMGrid.matched(cleaned, 100.0)
            block = dedisperse_all(cleaned, grid)
            per_beam.append(
                sift(
                    search_dm_block(
                        block, grid.trials, cleaned.tsamp_s, snr_threshold=7.0,
                        pointing_id=pointing.pointing_id, beam=filterbank.beam,
                    )
                )
            )
        all_sifted.extend(multibeam_coincidence(per_beam, max_beams=3).accepted)
    truths = [p for pointing in pointings for p in pointing.all_pulsars()]
    return all_sifted, truths, observations


def fold_snr_of(row, observations):
    filterbank = observations[row["pointing_id"]][row["beam"]]
    rng = np.random.default_rng(4)
    cleaned, _ = clean_filterbank(filterbank, rng=rng)
    series = dedisperse(cleaned, row["dm"])
    _, snr = refine_period(series, filterbank.tsamp_s, row["period_s"],
                           n_trials=11)
    return snr


def ablate(sifted, truths, observations):
    rows = []
    fold_cache = {}
    for label, cull_params, min_dm_hits, fold_threshold in VARIANTS:
        database = CandidateDatabase()
        database.add_candidates(sifted)
        database.cull_widespread(**cull_params)
        survivors = database.confirmed_pulsars(min_snr=7.0,
                                               min_dm_hits=min_dm_hits)
        database.close()
        confirmed = []
        for row in survivors:
            key = (row["pointing_id"], row["beam"], round(row["freq_hz"], 3),
                   round(row["dm"], 2))
            if key not in fold_cache:
                fold_cache[key] = fold_snr_of(row, observations)
            if fold_cache[key] >= fold_threshold:
                confirmed.append(row)
        confirmed_sifted = [
            SiftedCandidate(
                period_s=row["period_s"], freq_hz=row["freq_hz"], snr=row["snr"],
                dm=row["dm"], n_harmonics=row["n_harmonics"],
                n_dm_hits=row["n_dm_hits"], snr_dm0=row["snr_dm0"],
                pointing_id=row["pointing_id"], beam=row["beam"],
            )
            for row in confirmed
        ]
        matched = set()
        recovered = 0
        for pulsar in truths:
            match = match_to_truth(confirmed_sifted, pulsar.period_s,
                                   freq_tolerance=0.05)
            if match is not None:
                recovered += 1
                matched.add(id(match))
        falses = sum(1 for c in confirmed_sifted if id(c) not in matched)
        rows.append(
            {
                "variant": label,
                "confirmed": len(confirmed_sifted),
                "recall": f"{recovered}/{len(truths)}",
                "false candidates": falses,
                "_false": falses,
                "_recovered": recovered,
            }
        )
    return rows


def test_ablation_defences(report_rows):
    sifted, truths, observations = process_survey()
    rows = ablate(sifted, truths, observations)
    by_variant = {row["variant"]: row for row in rows}
    full = by_variant["full stack (culls + fold)"]
    culls_only = by_variant["culls only, no fold"]
    nothing = by_variant["no defences at all"]
    # The full stack keeps recall and has the lowest false load of all.
    assert full["_recovered"] == len(truths)
    for row in rows:
        assert full["_false"] <= row["_false"]
    # Without any defence the survey drowns; the metadata culls alone cut
    # most of it; fold cleans up the rest.
    assert nothing["_false"] > 5 * max(culls_only["_false"], 1)
    assert culls_only["_false"] < nothing["_false"]
    # With fold off, individual culls matter: at least two per-cull
    # ablations are strictly worse than running all culls.
    ablations = [row for row in rows if row["variant"].startswith("  - ")]
    strictly_worse = sum(
        1 for row in ablations if row["_false"] > culls_only["_false"]
    )
    assert strictly_worse >= 2
    for row in rows:
        row.pop("_false")
        row.pop("_recovered")
    report_rows("Ablation: candidate-culling defences", rows)
