"""C3 — RFI excision and the meta-analysis cull (Sections 2.1-2.2).

Paper claims regenerated here:
* "interference from terrestrial sources needs to be at least identified
  and most likely removed [...] algorithms that simultaneously investigate
  dynamic spectra for each of the 7 ALFA beams";
* "a meta-analysis is needed to cull those candidates that appear in
  multiple directions on the sky";
* "spurious signals take a wide range of forms" — the harness injects all
  three RFI families (periodic, narrowband, impulsive) and measures the
  false-candidate count as each defence is stacked on.
"""

import numpy as np

from repro.arecibo.candidates import match_to_truth, sift
from repro.arecibo.dedisperse import DMGrid, dedisperse_all
from repro.arecibo.fourier import search_dm_block
from repro.arecibo.metaanalysis import CandidateDatabase
from repro.arecibo.rfi import clean_filterbank, multibeam_coincidence, zero_dm_subtract
from repro.arecibo.sky import DEFAULT_RFI_ENVIRONMENT, SkyModel
from repro.arecibo.telescope import ObservationConfig, ObservationSimulator

CONFIG = ObservationConfig(n_channels=48, n_samples=4096)

SKY = SkyModel(
    seed=31,
    pulsar_fraction=0.6,
    binary_fraction=0.0,
    period_range_s=(0.03, 0.12),
    snr_range=(15.0, 30.0),
    rfi_environment=DEFAULT_RFI_ENVIRONMENT,
)


def run_stages(n_pointings=3):
    """Candidate counts as defences stack: none -> excision -> multibeam ->
    meta-analysis.  Pulsar recovery is tracked at each stage."""
    pointings = SKY.generate_pointings(n_pointings)
    simulator = ObservationSimulator(CONFIG)
    truths = [p for pointing in pointings for p in pointing.all_pulsars()]

    def recovered(sifted_list):
        count = 0
        for pulsar in truths:
            if match_to_truth(sifted_list, pulsar.period_s, freq_tolerance=0.05):
                count += 1
        return count

    raw_sifted = []
    zero_dm_sifted = []
    cleaned_sifted_by_pointing = []
    rng = np.random.default_rng(2)
    for pointing in pointings:
        beams = simulator.observe(pointing, seed=100 + pointing.pointing_id)
        per_beam = []
        for filterbank in beams:
            grid = DMGrid.matched(filterbank, 100.0)
            # Stage 0: no excision at all.
            block = dedisperse_all(filterbank, grid)
            raw_sifted.extend(
                sift(
                    search_dm_block(
                        block, grid.trials, filterbank.tsamp_s, snr_threshold=7.0,
                        pointing_id=pointing.pointing_id, beam=filterbank.beam,
                    )
                )
            )
            # Alternative to stage 1: subtract the DM-0 series, zap nothing.
            zero_dm_sifted.extend(
                sift(
                    search_dm_block(
                        dedisperse_all(zero_dm_subtract(filterbank), grid),
                        grid.trials, filterbank.tsamp_s, snr_threshold=7.0,
                        pointing_id=pointing.pointing_id, beam=filterbank.beam,
                    )
                )
            )
            # Stage 1: single-beam excision.
            cleaned, _ = clean_filterbank(filterbank, rng=rng)
            cleaned_block = dedisperse_all(cleaned, grid)
            per_beam.append(
                sift(
                    search_dm_block(
                        cleaned_block, grid.trials, cleaned.tsamp_s,
                        snr_threshold=7.0,
                        pointing_id=pointing.pointing_id, beam=filterbank.beam,
                    )
                )
            )
        cleaned_sifted_by_pointing.append(per_beam)

    stage1 = [c for per_beam in cleaned_sifted_by_pointing for beam in per_beam
              for c in beam]
    # Stage 2: multibeam coincidence per pointing.
    stage2 = []
    for per_beam in cleaned_sifted_by_pointing:
        stage2.extend(multibeam_coincidence(per_beam, max_beams=3).accepted)
    # Stage 3: meta-analysis over the whole survey slice.
    database = CandidateDatabase()
    database.add_candidates(stage2)
    database.cull_widespread(max_pointings=2)
    stage3 = database.confirmed_pulsars(min_snr=7.0, min_dm_hits=10)
    from repro.arecibo.candidates import SiftedCandidate

    stage3_sifted = [
        SiftedCandidate(
            period_s=row["period_s"], freq_hz=row["freq_hz"], snr=row["snr"],
            dm=row["dm"], n_harmonics=row["n_harmonics"],
            n_dm_hits=row["n_dm_hits"], snr_dm0=row["snr_dm0"],
            pointing_id=row["pointing_id"], beam=row["beam"],
        )
        for row in stage3
    ]
    database.close()

    rows = [
        {"stage": "no excision", "candidates": len(raw_sifted),
         "pulsars recovered": f"{recovered(raw_sifted)}/{len(truths)}"},
        {"stage": "(zero-DM subtraction alone)", "candidates": len(zero_dm_sifted),
         "pulsars recovered": f"{recovered(zero_dm_sifted)}/{len(truths)}"},
        {"stage": "+ channel zap & zero-DM clip", "candidates": len(stage1),
         "pulsars recovered": f"{recovered(stage1)}/{len(truths)}"},
        {"stage": "+ 7-beam coincidence", "candidates": len(stage2),
         "pulsars recovered": f"{recovered(stage2)}/{len(truths)}"},
        {"stage": "+ cross-pointing meta-analysis", "candidates": len(stage3_sifted),
         "pulsars recovered": f"{recovered(stage3_sifted)}/{len(truths)}"},
    ]
    return rows, len(truths)


def test_c3_rfi_metaanalysis(report_rows):
    rows, n_truths = run_stages()
    counts = [row["candidates"] for row in rows]
    # Each defence reduces the candidate load; meta-analysis is the big cut.
    assert counts[3] < counts[2]
    assert counts[4] < counts[3] / 5
    # Pulsars survive the whole gauntlet.
    final_recovered = int(rows[-1]["pulsars recovered"].split("/")[0])
    assert final_recovered == n_truths
    report_rows("C3: candidate load through the RFI/meta defences", rows)
