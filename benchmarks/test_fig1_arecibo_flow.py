"""FIG1 — the Arecibo data flow (paper Figure 1 + Section 2 volume claims).

Paper claims regenerated here:
* data products are "about one to a few percent the size of the raw data";
* candidate lists are "usually about 0.1% of the raw data volume";
* dedispersion time series "require storage about equal to that of the
  original raw data", so "a minimum of 30 Terabytes [~2.1x the 14 TB block]
  of storage is required instantaneously";
* "about 50 to 200 processors would be needed to keep up with the flow";
* the flow's stage order: acquire → ship disks → tape archive → process →
  consolidate into the database → meta-analysis.
"""

import time

from repro.arecibo.pipeline import AreciboPipelineConfig, run_arecibo_pipeline
from repro.arecibo.sky import SkyModel
from repro.arecibo.telescope import ObservationConfig


def run_flow(tmp_path):
    config = AreciboPipelineConfig(
        n_pointings=4,
        observation=ObservationConfig(n_channels=48, n_samples=4096),
        sky=SkyModel(
            seed=41,
            pulsar_fraction=0.6,
            binary_fraction=0.0,
            period_range_s=(0.03, 0.12),
            snr_range=(15.0, 30.0),
        ),
    )
    return run_arecibo_pipeline(tmp_path, config)


def fig1_rows(report, process_wall_seconds):
    """Paper-vs-measured rows for Figure 1."""
    # Processor estimate: measured single-core search throughput, scaled to
    # the survey's real-time requirement of 14 TB per 35 hours.
    survey_rate_gb_s = 14_000.0 / (35 * 3600.0)
    measured_rate_gb_s = report.raw_size.gb / max(process_wall_seconds, 1e-9)
    processors = survey_rate_gb_s / measured_rate_gb_s
    dedispersed_ratio = report.dedispersed_size.bytes / report.raw_size.bytes
    candidates_fraction = (
        report.flow_report.stage("consolidate").output_size.bytes
        / report.raw_size.bytes
    )
    return [
        {
            "claim": "stage order acquire->ship->archive->process->db->meta",
            "paper": "Figure 1",
            "measured": " -> ".join(s.name for s in report.flow_report.stages),
        },
        {
            "claim": "data products / raw",
            "paper": "1-3 %",
            "measured": f"{report.products_fraction * 100:.3f} % (candidate records)",
        },
        {
            "claim": "candidates / raw",
            "paper": "~0.1 %",
            "measured": f"{candidates_fraction * 100:.4f} %",
        },
        {
            "claim": "instantaneous storage / raw",
            "paper": ">= 2.1x (30 TB per 14 TB block)",
            "measured": f"{1.0 + dedispersed_ratio:.2f}x (raw + DM-trial block)",
        },
        {
            "claim": "processors to keep up",
            "paper": "50-200",
            "measured": f"{processors:.0f} (this Python kernel, 1 core baseline)",
        },
        {
            "claim": "pulsar recall after meta-analysis",
            "paper": "interesting pulsars discovered",
            "measured": f"{report.score.recall * 100:.0f} % "
            f"({report.score.recovered}/{report.score.injected})",
        },
    ]


def test_fig1_arecibo_flow(tmp_path, report_rows):
    # The paper's processor estimate is itself a wall-derived rate: it is
    # reported, never asserted on.
    start = time.perf_counter()
    report = run_flow(tmp_path)
    wall = time.perf_counter() - start

    names = [stage.name for stage in report.flow_report.stages]
    assert names == ["acquire", "ship", "archive", "process", "consolidate",
                     "meta-analysis"]
    # Products are a tiny fraction of raw; the DM-trial block dominates
    # intermediate storage (both the paper's structural claims).
    assert report.products_fraction < 0.03
    assert report.dedispersed_size.bytes > report.raw_size.bytes
    # Storage high-water exceeds raw alone.
    assert report.flow_report.peak_live_storage.bytes > report.raw_size.bytes
    # The survey finds its pulsars and culls terrestrial interference.
    assert report.score.recall == 1.0
    assert report.meta_report.terrestrial > 0
    assert report.shipment.report.clean
    assert report.tape_cartridges >= 1

    report_rows("FIG1: Arecibo data flow", fig1_rows(report, wall))
