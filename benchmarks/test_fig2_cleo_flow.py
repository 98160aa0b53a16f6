"""FIG2 — the CLEO data flow (paper Figure 2 + Section 3 claims).

Paper claims regenerated here:
* runs last "typically between 45 and 60 minutes" and comprise "between
  15K and 300K particle collision events";
* "typically a dozen ASUs per event in the post-reconstruction data";
* "CLEO has accumulated more than 90 Terabytes of data" (projected);
* reconstruction condenses raw data; Monte Carlo is produced offsite and
  merged back; analysis pinned to grade+timestamp is reproducible.
"""


from repro.cleo.analysis import AnalysisJob
from repro.cleo.pipeline import CleoPipelineConfig, run_cleo_pipeline
from repro.cleo.postrecon import POSTRECON_ASUS
from repro.eventstore.scales import CollaborationEventStore


def run_flow(tmp_path):
    return run_cleo_pipeline(
        tmp_path, CleoPipelineConfig(n_runs=3, events_scale=0.0004, seed=5)
    )


def fig2_rows(report, replay_equal):
    durations = [run.duration.minutes_ for run in report.runs]
    nominals = [int(run.condition_map["nominal_events"]) for run in report.runs]
    return [
        {
            "claim": "run duration",
            "paper": "45-60 min",
            "measured": f"{min(durations):.0f}-{max(durations):.0f} min",
        },
        {
            "claim": "events per run",
            "paper": "15K-300K",
            "measured": f"{min(nominals) / 1000:.0f}K-{max(nominals) / 1000:.0f}K (nominal)",
        },
        {
            "claim": "post-recon ASUs per event",
            "paper": "typically a dozen",
            "measured": str(len(POSTRECON_ASUS)),
        },
        {
            "claim": "total accumulated data",
            "paper": "> 90 TB",
            "measured": f"{report.projected_total(full_runs=500_000).tb:.0f} TB "
            "(projected to 500K runs)",
        },
        {
            "claim": "recon condenses raw",
            "paper": "derived < raw",
            "measured": f"recon/raw = "
            f"{report.sizes_by_kind['recon'].bytes / report.sizes_by_kind['raw'].bytes:.3f}",
        },
        {
            "claim": "pinned analysis reproducible",
            "paper": "recover exactly the versions used previously",
            "measured": "bit-identical replay" if replay_equal else "MISMATCH",
        },
    ]


def test_fig2_cleo_flow(tmp_path, report_rows):
    report = run_flow(tmp_path)

    # Figure-2 structure.
    names = {stage.name for stage in report.flow_report.stages}
    assert names == {
        "acquisition",
        "reconstruction",
        "post-reconstruction",
        "monte-carlo",
        "physics-analysis",
    }
    # Paper parameters hold per run.
    for run in report.runs:
        assert 45 <= run.duration.minutes_ <= 60
        nominal = int(run.condition_map["nominal_events"])
        assert 15_000 <= nominal <= 300_000
    assert len(POSTRECON_ASUS) == 12
    # All four kinds produced; recon condenses raw.
    assert set(report.sizes_by_kind) == {"raw", "recon", "postrecon", "mc"}
    assert report.sizes_by_kind["recon"] < report.sizes_by_kind["raw"]

    # Reproducibility: replay the pinned analysis against the stored data.
    with CollaborationEventStore(report.store_root) as store:
        job = AnalysisJob(
            "trackSpread",
            store,
            report.config.grade,
            report.config.grade_timestamp + 1.0,
        )
        replay = job.run()
    replay_equal = (
        replay.histogram.fingerprint() == report.analysis.histogram.fingerprint()
    )
    assert replay_equal

    report_rows("FIG2: CLEO data flow", fig2_rows(report, replay_equal))
