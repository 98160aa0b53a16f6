"""C17 — resilience: availability under injected faults, and resume cost.

Two experiments against the fault-free Figure-1 baseline:

* **Availability** — the same flow under a transient-crash + delay plan
  with retry enabled, and under a dead-beam plan that degrades the
  science instead.  Columns: completion rate, retries, simulated retry
  wait (the retry overhead), injected faults.
* **Recovery** — a run killed mid-flow by an injected crash, resumed
  against the same stage cache and the same armed injector.  The resumed
  run replays the completed prefix from cache (byte-identical events)
  and only re-executes from the crashed stage, which is the recovery
  latency story.
"""

import time

from repro.arecibo.pipeline import AreciboPipelineConfig, run_arecibo_pipeline
from repro.arecibo.sky import SkyModel
from repro.arecibo.telescope import ObservationConfig
from repro.cleo.pipeline import CleoPipelineConfig, run_cleo_pipeline
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.recovery import AvailabilitySummary, RetryPolicy, run_to_completion
from repro.core.stagecache import StageCache
from repro.core.telemetry import strip_wall_clock

SEED = 17

RETRY = RetryPolicy(max_attempts=3, backoff_base_s=30.0, backoff_factor=2.0)

# Stages upstream of the injected process crash; the resume experiment
# expects exactly this prefix to replay from cache.
PREFIX_STAGES = ("acquire", "ship", "archive")


def config(workers=2):
    return AreciboPipelineConfig(
        n_pointings=2,
        observation=ObservationConfig(n_channels=32, n_samples=2048),
        sky=SkyModel(
            seed=SEED,
            pulsar_fraction=0.5,
            binary_fraction=0.0,
            transient_rate=0.5,
            period_range_s=(0.03, 0.12),
            snr_range=(15.0, 30.0),
        ),
        seed=SEED,
        workers=workers,
    )


def transient_plan():
    """One process crash plus a shipping delay — recoverable by retry."""
    return FaultPlan(
        specs=(
            FaultSpec(name="process-crash", scope="stage",
                      target="arecibo-figure1/process", kind="crash",
                      max_fires=1),
            FaultSpec(name="customs-hold", scope="stage",
                      target="arecibo-figure1/ship", kind="delay",
                      param=3600.0, max_fires=1),
        ),
        seed=SEED,
    )


def dead_beam_plan():
    """A beam that never comes back — degrades the science, not the run."""
    return FaultPlan(
        specs=(
            FaultSpec(name="dead-beam", scope="beam",
                      target="arecibo-figure1/p*/b3", kind="drop",
                      max_fires=None),
        ),
        seed=SEED,
    )


def summarize(report):
    return AvailabilitySummary(**report.flow_report.availability())


def availability_row(scenario, summary, extra=None):
    row = {
        "scenario": scenario,
        "completion": f"{summary.completion_rate:.2f}",
        "stages": summary.stages,
        "attempts": summary.attempts,
        "retries": summary.retries,
        "faults": summary.faults_injected,
        "retry_wait": f"{summary.retry_wait_s:.0f} s",
    }
    row.update(extra or {})
    return row


def test_c17_availability_under_faults(report_rows, tmp_path):
    baseline = run_arecibo_pipeline(tmp_path / "baseline", config())
    transient = run_arecibo_pipeline(
        tmp_path / "transient", config(), faults=transient_plan(), retry=RETRY
    )
    degraded = run_arecibo_pipeline(
        tmp_path / "degraded", config(), faults=dead_beam_plan(), retry=RETRY
    )

    base, tran, degr = map(summarize, (baseline, transient, degraded))

    # Fault-free: one attempt per stage, nothing on the fault ledger.
    assert base.completion_rate == 1.0
    assert base.retries == 0 and base.faults_injected == 0
    # Transient faults: the flow still completes, the retry overhead is
    # visible, and the science is unchanged — retries are invisible to
    # the result, not to the accounting.
    assert tran.completion_rate == 1.0
    assert tran.retries >= 1 and tran.retry_wait_s > 0.0
    assert tran.faults_injected == 2
    assert transient.score == baseline.score
    assert transient.beam_culls == []
    # Dead beam: every pointing loses beam 3; the survey completes with
    # reduced science (fewer candidates searched, weaker multibeam veto)
    # rather than failing.
    assert degr.completion_rate == 1.0
    assert degraded.beam_culls == [(0, 3), (1, 3)]
    assert degraded.candidate_count_presift < baseline.candidate_count_presift
    assert degraded.multibeam_rejected < baseline.multibeam_rejected

    report_rows(
        "C17: Figure-1 availability vs fault-free baseline",
        [
            availability_row("fault-free", base, {"beams_lost": 0}),
            availability_row("transient+retry", tran, {"beams_lost": 0}),
            availability_row(
                "dead-beam", degr, {"beams_lost": len(degraded.beam_culls)}
            ),
        ],
    )


def test_c17_checkpoint_resume(report_rows, tmp_path):
    # Cold reference: the full flow, fault-free.
    start = time.perf_counter()
    reference = run_arecibo_pipeline(tmp_path / "reference", config())
    cold_s = time.perf_counter() - start

    # Crash, then resume: no retry policy, so the injected process crash
    # kills the first attempt after the upstream stages have committed to
    # the cache; the second gets the same cache and the same injector (its
    # fire budgets are spent).
    cache = StageCache()
    injector = transient_plan().arm()
    walls = []

    def attempt():
        start = time.perf_counter()
        try:
            return run_arecibo_pipeline(
                tmp_path / f"attempt-{len(walls)}", config(), cache=cache, faults=injector
            )
        finally:
            walls.append(time.perf_counter() - start)

    resumed, restarts = run_to_completion(attempt)
    assert restarts == 1
    resume_s = walls[-1]

    replayed = cache.hits
    assert replayed == len(PREFIX_STAGES)
    assert resumed.score == reference.score

    # The replayed prefix is byte-identical to the uninterrupted run —
    # cache replay regenerates the same stage events, fault records and
    # all (the reference saw no faults, so compare within the resumed
    # pair: crashed run's committed prefix vs its replay).
    def prefix(workdir_report):
        return [
            event
            for event in strip_wall_clock(workdir_report.flow_report.events)
            if event["name"] in PREFIX_STAGES
        ]

    uninterrupted = run_arecibo_pipeline(
        tmp_path / "uninterrupted",
        config(),
        faults=transient_plan(),
        retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
    )
    assert prefix(resumed) == prefix(uninterrupted)

    report_rows(
        "C17: crash mid-flow, resume from the stage cache",
        [
            {
                "run": "cold (fault-free)",
                "stages_executed": 6,
                "stages_replayed": 0,
                "wall": f"{cold_s:.2f} s",
            },
            {
                "run": "resumed",
                "stages_executed": 6 - replayed,
                "stages_replayed": replayed,
                "wall": f"{resume_s:.2f} s",
            },
        ],
    )


def test_c17_cleo_availability(report_rows, tmp_path):
    cleo_config = CleoPipelineConfig(
        n_runs=2, events_scale=0.0003, seed=SEED, workers=2
    )
    baseline = run_cleo_pipeline(tmp_path / "baseline", cleo_config)
    plan = FaultPlan(
        specs=(
            FaultSpec(name="reco-crash", scope="stage",
                      target="cleo-figure2/reconstruction", kind="crash",
                      max_fires=1),
        ),
        seed=SEED,
    )
    faulted = run_cleo_pipeline(
        tmp_path / "faulted", cleo_config, faults=plan, retry=RETRY
    )
    base, fault = map(summarize, (baseline, faulted))
    assert base.retries == 0
    assert fault.completion_rate == 1.0
    assert fault.retries == 1
    assert (
        faulted.analysis.histogram.fingerprint()
        == baseline.analysis.histogram.fingerprint()
    )
    report_rows(
        "C17: Figure-2 availability vs fault-free baseline",
        [
            availability_row("fault-free", base),
            availability_row("transient+retry", fault),
        ],
    )
