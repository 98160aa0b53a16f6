"""Chaos harness: seeded fault plans swept over both figure pipelines.

The contract under test is the tentpole of the resilience subsystem:
with a nonzero fault plan and a retry policy, both figure flows still
run to completion, every injection is visible in the availability
accounting, and the whole run — faults, retries, degradations and all —
is deterministic (same seed, same plan, same fingerprint).
"""

from dataclasses import replace

import pytest

from perfbench.workloads import fig1_config
from repro.arecibo.pipeline import run_arecibo_pipeline
from repro.arecibo.telescope import ObservationConfig
from repro.cleo.pipeline import CleoPipelineConfig, run_cleo_pipeline
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.recovery import RetryPolicy
from tests.conftest import fingerprint

SEEDS = [3, 17, 29]

RETRY = RetryPolicy(max_attempts=3, backoff_base_s=10.0, backoff_factor=2.0)


def arecibo_config(seed):
    """perfbench's Figure-1 sky and seeds on a smaller receiver."""
    return replace(
        fig1_config(seed, 2, workers=2),
        observation=ObservationConfig(n_channels=32, n_samples=2048),
    )


def arecibo_plan(seed):
    """Transient stage crashes plus persistent probabilistic beam drops."""
    return FaultPlan(
        specs=(
            FaultSpec(name="process-crash", scope="stage",
                      target="arecibo-figure1/process", kind="crash",
                      max_fires=1),
            FaultSpec(name="customs-hold", scope="stage",
                      target="arecibo-figure1/ship", kind="delay",
                      param=3600.0, max_fires=1),
            FaultSpec(name="beam-dropout", scope="beam",
                      target="arecibo-figure1/p*", kind="drop",
                      probability=0.3, max_fires=None),
        ),
        seed=seed,
    )


def cleo_plan(seed):
    return FaultPlan(
        specs=(
            FaultSpec(name="reco-crash", scope="stage",
                      target="cleo-figure2/reconstruction", kind="crash",
                      max_fires=1),
            FaultSpec(name="farm-brownout", scope="stage",
                      target="cleo-figure2/monte-carlo", kind="delay",
                      param=1800.0, max_fires=1),
        ),
        seed=seed,
    )


class TestAreciboChaos:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_completes_under_injection_with_visible_accounting(
        self, tmp_path, seed
    ):
        report = run_arecibo_pipeline(
            tmp_path,
            arecibo_config(seed),
            faults=arecibo_plan(seed),
            retry=RETRY,
        )
        availability = report.flow_report.availability()
        assert availability["stages"] == availability["completed"]
        # The transient process crash forced at least one retry...
        assert availability["attempts"] > availability["stages"]
        assert availability["retry_wait_s"] > 0.0
        # ...and every injection (crash + delay + any beam drops) is on
        # the books.
        assert availability["faults_injected"] >= 2
        assert availability["faults_injected"] >= 2 + len(report.beam_culls)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_runs_are_deterministic(self, tmp_path, seed):
        def run(where):
            report = run_arecibo_pipeline(
                tmp_path / where,
                arecibo_config(seed),
                faults=arecibo_plan(seed),
                retry=RETRY,
            )
            return fingerprint(report, tmp_path / where), report.beam_culls

        assert run("a") == run("b")

    def test_culled_beams_shrink_the_science_but_not_the_run(self, tmp_path):
        # A plan that certainly drops one beam of one pointing: the flow
        # still completes and the cull is reported, the paper's "drop the
        # beam, keep the survey" degradation.
        plan = FaultPlan(
            specs=(
                FaultSpec(name="dead-beam", scope="beam",
                          target="arecibo-figure1/p0000/b3", kind="drop",
                          max_fires=None),
            ),
            seed=1,
        )
        report = run_arecibo_pipeline(
            tmp_path, arecibo_config(7), faults=plan, retry=RETRY
        )
        assert report.beam_culls == [(0, 3)]
        availability = report.flow_report.availability()
        assert availability["stages"] == availability["completed"]


class TestCleoChaos:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_completes_under_injection_with_visible_accounting(
        self, tmp_path, seed
    ):
        report = run_cleo_pipeline(
            tmp_path,
            CleoPipelineConfig(
                n_runs=2, events_scale=0.0003, seed=seed, workers=2
            ),
            faults=cleo_plan(seed),
            retry=RETRY,
        )
        availability = report.flow_report.availability()
        assert availability["stages"] == availability["completed"]
        assert availability["attempts"] == availability["stages"] + 1
        assert availability["faults_injected"] == 2

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_runs_are_deterministic(self, tmp_path, seed):
        def run(where):
            report = run_cleo_pipeline(
                tmp_path / where,
                CleoPipelineConfig(
                    n_runs=2, events_scale=0.0003, seed=seed, workers=2
                ),
                faults=cleo_plan(seed),
                retry=RETRY,
            )
            return fingerprint(report, tmp_path / where)

        assert run("a") == run("b")
