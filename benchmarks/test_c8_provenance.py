"""C8 — file-level provenance summaries vs ASU-granularity tracking
(Section 3.2).

Paper claims regenerated here:
* "we collect, as strings, all the software module names, their
  parameters, plus all the input file information and make an MD5 hash
  [...] We can detect the majority of usage discrepancies by comparing the
  hashes";
* "the metadata volume to track at the ASU level will be large, and it
  will be inappropriate to store it in the headers of the data files".
"""

import numpy as np

from repro.cleo.calibration import degraded_calibration, perfect_calibration, true_misalignment
from repro.cleo.detector import Detector, DetectorConfig
from repro.cleo.reconstruction import Reconstructor, track_residual_bias, tracks_of
from repro.eventstore.fileformat import FileHeader, open_event_file, write_event_file
from repro.eventstore.provenance import (
    asu_level_cost,
    check_consistency,
    file_level_cost,
    stamp_step,
)

from tests.eventstore.conftest import make_events


def write_population(tmp_path, n_files=20, drifted_indexes=(4, 11, 17)):
    """A reconstruction campaign where a few files used a stale calibration."""
    files = []
    for index in range(n_files):
        calibration = "cal_v7" if index not in drifted_indexes else "cal_v6"
        stamp = stamp_step("DAQ", "daq_v3")
        stamp = stamp_step(
            "PassRecon", "Feb13_04_P2", {"calibration": calibration}, parents=[stamp]
        )
        path = tmp_path / f"run{index:03d}.evs"
        write_event_file(
            path,
            FileHeader(run_number=index + 1, version="Recon_v1", data_kind="recon",
                       created_at=0.0),
            make_events(run_number=index + 1, count=50, seed=index),
            stamp,
        )
        files.append(open_event_file(path))
    return files


def test_c8_discrepancy_detection(tmp_path, report_rows):
    files = write_population(tmp_path)
    report = check_consistency(files)

    # The hash comparison finds exactly the drifted files...
    assert not report.consistent
    assert report.outliers() == ["run004.evs", "run011.evs", "run017.evs"]
    # ...and the strings explain what changed.
    assert any("cal_v6" in line or "cal_v7" in line for line in report.explanations)

    # Cost comparison: the dozen-ASU-per-event alternative.
    file_cost = file_level_cost(files)
    asu_cost = asu_level_cost(files, asus_per_event=12)
    ratio = asu_cost.bytes_total / file_cost.bytes_total

    rows = [
        {
            "scheme": "file-level MD5 summary (implemented)",
            "records": file_cost.records,
            "metadata": f"{file_cost.bytes_total / 1024:.1f} KB",
            "drift detected": "3/3 files",
        },
        {
            "scheme": "exact ASU-level tracking (projected)",
            "records": asu_cost.records,
            "metadata": f"{asu_cost.bytes_total / 1024:.1f} KB",
            "drift detected": "3/3 (at this cost)",
        },
        {
            "scheme": "cost ratio",
            "records": f"{asu_cost.records // max(file_cost.records, 1)}x",
            "metadata": f"{ratio:.0f}x",
            "drift detected": "-",
        },
    ]
    # The paper's judgement call: ASU-level costs orders of magnitude more.
    assert ratio > 100
    report_rows("C8: provenance scheme cost vs detection", rows)


def test_c8_accumulation_through_steps(report_rows):
    """Stamps accumulate per step, and any step's change flips the digest."""
    base = stamp_step("DAQ", "daq_v3")
    recon = stamp_step("PassRecon", "P2", {"cal": "v7"}, parents=[base])
    post = stamp_step("PassPostRecon", "A1", parents=[recon])
    assert len(post.history) == 3

    drifted_recon = stamp_step("PassRecon", "P2", {"cal": "v8"}, parents=[base])
    drifted_post = stamp_step("PassPostRecon", "A1", parents=[drifted_recon])
    assert not post.matches(drifted_post)
    diff = post.diff(drifted_post)
    assert any("cal" in line for line in diff)
    report_rows(
        "C8b: accumulated stamps",
        [
            {"chain": "DAQ -> Recon(cal v7) -> PostRecon", "digest": post.digest[:12]},
            {"chain": "DAQ -> Recon(cal v8) -> PostRecon",
             "digest": drifted_post.digest[:12]},
        ],
    )


def test_c8_what_the_stale_calibration_costs(report_rows):
    """Why a discrepancy is worth detecting: the same raw events under the
    current calibration and under an earlier, cruder pass."""
    config = DetectorConfig()
    misalignment = true_misalignment(config.n_planes, 0.2, seed=3)
    rng = np.random.default_rng(6)
    generated = [Detector(config, misalignment).generate_event(1, n, rng) for n in range(30)]
    truths = [np.array([t.x0 for t in truth.tracks]) for _, truth in generated]
    rows = []
    for calibration in (
        perfect_calibration(misalignment, "cal_v7 (current)"),
        degraded_calibration(misalignment, "cal_v6 (stale)", 0.5, seed=4),
    ):
        recon = Reconstructor(config, calibration, "Feb13_04_P2")
        events = [recon.reconstruct_event(event) for event, _ in generated]
        rows.append({
            "calibration": calibration.version,
            "track x0 bias (cm)": round(track_residual_bias(events, truths), 3),
            "mean chi2/dof": round(float(np.mean([tracks_of(e)[:, 2].mean() for e in events])), 1),
        })
    assert rows[1]["track x0 bias (cm)"] > rows[0]["track x0 bias (cm)"]
    assert rows[1]["mean chi2/dof"] > 2 * rows[0]["mean chi2/dof"]
    report_rows("C8c: the same 30 events under the current and the stale calibration", rows)
