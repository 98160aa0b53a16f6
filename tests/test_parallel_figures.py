"""``workers=1`` vs ``workers=4`` under the default shard executor.

Both figure flows must report the same run whatever ``workers`` says —
FlowReport stage rows, provenance parent chains, and (for Figure 1) the
pipeline's DetectionScore — across several seeds.  Under
``executor="thread"`` the worker count reaches no stage or shard (one
thread runs every stage, and shards run inline), so this pins that the
knob stays inert there; the process farm's bar is
``tests/test_process_figures.py``.
"""

import pytest

from repro.arecibo.pipeline import AreciboPipelineConfig, run_arecibo_pipeline
from repro.arecibo.sky import SkyModel
from repro.arecibo.telescope import ObservationConfig
from repro.cleo.pipeline import CleoPipelineConfig, run_cleo_pipeline
from repro.core.telemetry import read_event_log, strip_wall_clock


def flow_snapshot(flow_report):
    return {
        "rows": flow_report.summary_rows(),
        "peak": flow_report.peak_live_storage.bytes,
        "cpu": flow_report.total_cpu_time.seconds,
    }


def canonical_log(flow_report):
    """The run's telemetry events with the only wall-clock field stripped."""
    return strip_wall_clock(flow_report.events)


def persisted_canonical_log(workdir):
    return strip_wall_clock(read_event_log(workdir / "telemetry.jsonl"))


def provenance_chains(flow_report):
    # Every record is some stage's, so the per-stage records with their
    # parent ids are the whole lineage graph.
    store = flow_report.provenance
    return {
        stage.name: (r.record_id, r.artifact, r.step, r.parent_ids,
                     r.stamp.history, r.stamp.digest)
        for stage in flow_report.stages
        for r in [store.get(stage.provenance_id)]
    }


def arecibo_config(seed, workers):
    return AreciboPipelineConfig(
        n_pointings=2,
        observation=ObservationConfig(n_channels=32, n_samples=2048),
        sky=SkyModel(
            seed=seed,
            pulsar_fraction=0.5,
            binary_fraction=0.0,
            transient_rate=0.5,
            period_range_s=(0.03, 0.12),
            snr_range=(15.0, 30.0),
        ),
        seed=seed,
        workers=workers,
    )


@pytest.mark.parametrize("seed", [7, 41, 113])
def test_figure1_parallel_matches_sequential(tmp_path, seed):
    sequential = run_arecibo_pipeline(
        tmp_path / "seq", arecibo_config(seed, workers=1)
    )
    parallel = run_arecibo_pipeline(
        tmp_path / "par", arecibo_config(seed, workers=4)
    )
    assert flow_snapshot(parallel.flow_report) == flow_snapshot(sequential.flow_report)
    assert provenance_chains(parallel.flow_report) == provenance_chains(
        sequential.flow_report
    )
    assert parallel.score == sequential.score
    assert parallel.candidate_count_presift == sequential.candidate_count_presift
    assert parallel.candidate_count_sifted == sequential.candidate_count_sifted
    assert parallel.transient_count == sequential.transient_count
    assert parallel.multibeam_rejected == sequential.multibeam_rejected
    assert parallel.dedispersed_size == sequential.dedispersed_size

    # The telemetry logs are identical event-for-event once the wall-clock
    # timestamp (the only real-time field) is stripped — both in memory and
    # as persisted to each workdir's telemetry.jsonl.
    assert canonical_log(parallel.flow_report) == canonical_log(sequential.flow_report)
    assert persisted_canonical_log(tmp_path / "par") == persisted_canonical_log(
        tmp_path / "seq"
    )


@pytest.mark.parametrize("seed", [5, 11])
def test_figure2_parallel_matches_sequential(tmp_path, seed):
    def run(workers, where):
        return run_cleo_pipeline(
            tmp_path / where,
            CleoPipelineConfig(
                n_runs=2, events_scale=0.0003, seed=seed, workers=workers
            ),
        )

    sequential = run(1, "seq")
    parallel = run(3, "par")
    assert flow_snapshot(parallel.flow_report) == flow_snapshot(sequential.flow_report)
    assert provenance_chains(parallel.flow_report) == provenance_chains(
        sequential.flow_report
    )
    assert (
        parallel.analysis.histogram.fingerprint()
        == sequential.analysis.histogram.fingerprint()
    )
    assert {k: v.bytes for k, v in parallel.sizes_by_kind.items()} == {
        k: v.bytes for k, v in sequential.sizes_by_kind.items()
    }
    assert canonical_log(parallel.flow_report) == canonical_log(sequential.flow_report)
    assert persisted_canonical_log(tmp_path / "par") == persisted_canonical_log(
        tmp_path / "seq"
    )
