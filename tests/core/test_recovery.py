"""Recovery: retry policies, backoff accounting, dead letters, resume."""

import pytest

from repro.core.dataflow import DataFlow
from repro.core.dataset import Dataset
from repro.core.engine import Engine
from repro.core.errors import ExecutionError, FaultError
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.recovery import (
    NO_RETRY,
    RetryPolicy,
    run_to_completion,
)
from repro.core.stagecache import StageCache
from repro.core.units import DataSize
from tests.conftest import fingerprint


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_base_s=10.0, backoff_factor=2.0,
            max_backoff_s=35.0,
        )
        assert [policy.delay_for(n) for n in (1, 2, 3, 4)] == [
            10.0, 20.0, 35.0, 35.0,
        ]

    def test_no_retry_preset(self):
        assert NO_RETRY.max_attempts == 1
        assert NO_RETRY.fallback is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base_s": -1.0},
            {"backoff_factor": 0.5},
            {"max_backoff_s": -1.0},
            {"backoff_base_s": float("nan")},
            {"backoff_base_s": float("inf")},
            {"backoff_factor": float("nan")},
            {"backoff_factor": float("inf")},
            {"max_backoff_s": float("nan")},
            {"max_backoff_s": float("inf")},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(FaultError):
            RetryPolicy(**kwargs)

    def test_delay_for_rejects_zero_attempt(self):
        with pytest.raises(FaultError):
            RetryPolicy().delay_for(0)

    def test_repr_is_stable_for_cache_fingerprints(self):
        def fb(inputs, ctx, error):
            return None

        policy = RetryPolicy(max_attempts=2, fallback=fb)
        assert repr(policy) == repr(RetryPolicy(max_attempts=2, fallback=fb))
        assert "TestRetryPolicy" in repr(policy)  # by qualname, not identity


def flaky_flow(fail_times=1, flow_name="flaky"):
    """source -> work, where work fails its first ``fail_times`` attempts."""
    attempts = {"count": 0}
    flow = DataFlow(flow_name)

    def source(inputs, ctx):
        return Dataset("raw", DataSize.gigabytes(1), version="v1")

    def work(inputs, ctx):
        attempts["count"] += 1
        if attempts["count"] <= fail_times:
            raise RuntimeError("transient wobble")
        return inputs["source"].derive("out", DataSize.megabytes(100))

    flow.stage("source", source, site="lab")
    flow.stage("work", work, site="lab")
    flow.connect("source", "work")
    return flow, attempts


class TestEngineRetry:
    def test_default_is_no_retry(self):
        flow, attempts = flaky_flow(fail_times=1)
        with pytest.raises(ExecutionError, match="transient wobble"):
            Engine(seed=1).run(flow)
        assert attempts["count"] == 1

    def test_retry_rides_over_transient_failures(self):
        flow, attempts = flaky_flow(fail_times=2)
        policy = RetryPolicy(max_attempts=3, backoff_base_s=10.0)
        report = Engine(seed=1, retry=policy).run(flow)
        assert attempts["count"] == 3
        row = report.stage("work")
        assert row.attempts == 3
        # Backoff after attempts 1 and 2: 10 + 20 simulated seconds.
        assert row.retry_wait.seconds == 30.0
        assert report.availability().retry_wait_s == 30.0
        kinds = [event.kind for event in report.events]
        assert "stage.retry" in kinds

    def test_backoff_advances_the_sim_clock_not_cpu(self):
        flow, _ = flaky_flow(fail_times=1)
        policy = RetryPolicy(max_attempts=2, backoff_base_s=7.0)
        engine = Engine(seed=1, retry=policy)
        report = engine.run(flow)
        assert report.stage("work").cpu_time.seconds == 0.0
        finish = [e for e in report.events if e.kind == "flow.finish"][0]
        assert finish.sim_time >= 7.0

    def test_per_stage_policy_overrides_engine_default(self):
        attempts = {"count": 0}
        flow = DataFlow("override")

        def source(inputs, ctx):
            return Dataset("raw", DataSize.gigabytes(1), version="v1")

        def work(inputs, ctx):
            attempts["count"] += 1
            if attempts["count"] <= 1:
                raise RuntimeError("wobble")
            return inputs["source"].derive("out", DataSize.megabytes(1))

        flow.stage("source", source)
        flow.stage(
            "work", work, retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        )
        flow.connect("source", "work")
        report = Engine(seed=1).run(flow)  # engine default is NO_RETRY
        assert report.stage("work").attempts == 2

    def test_exhausted_retries_dead_letter_and_abort(self):
        flow, attempts = flaky_flow(fail_times=99)
        policy = RetryPolicy(max_attempts=3, backoff_base_s=1.0)
        engine = Engine(seed=1, retry=policy)
        with pytest.raises(ExecutionError, match="after 3 attempts"):
            engine.run(flow)
        assert attempts["count"] == 3
        assert len(engine.dead_letters) == 1
        letter = engine.dead_letters[0]
        assert letter.stage == "work"
        assert letter.attempts == 3
        assert not letter.degraded

    def test_fallback_degrades_instead_of_aborting(self):
        def fallback(stage_inputs, ctx, error):
            ctx.stash["stale"] = True
            return stage_inputs["source"].derive(
                "out-degraded", DataSize.megabytes(1)
            )

        flow, _ = flaky_flow(fail_times=99)
        flow.stages["work"].retry = RetryPolicy(
            max_attempts=2, backoff_base_s=5.0, fallback=fallback
        )
        engine = Engine(seed=1)
        report = engine.run(flow)
        row = report.stage("work")
        assert row.degraded
        assert report.outputs["work"].name == "out-degraded"
        assert report.stashes["work"]["stale"] is True
        assert len(engine.dead_letters) == 1
        assert engine.dead_letters[0].degraded
        kinds = [event.kind for event in report.events]
        assert "stage.degraded" in kinds
        assert "stage.dead_letter" in kinds
        availability = report.availability()
        assert availability.degraded == 1
        assert availability.dead_letters == 1

    def test_a_degraded_letter_survives_a_later_abort(self):
        """The degraded stage completed before the run aborted, so its
        letter is kept ahead of the abort's own."""
        def stale(inputs, ctx, error):
            return Dataset("stale", DataSize(1.0))

        flow = DataFlow("chain")
        flow.stage(
            "s1", lambda inputs, ctx: Dataset("raw", DataSize(1.0)),
            retry=RetryPolicy(max_attempts=1, fallback=stale),
        )
        flow.stage("s2", lambda inputs, ctx: 1 / 0)
        flow.connect("s1", "s2")
        plan = FaultPlan(specs=(FaultSpec(
            name="down", scope="stage", target="chain/s1", kind="crash", max_fires=None,
        ),))
        engine = Engine(seed=1, faults=plan)
        with pytest.raises(ExecutionError, match="'s2'"):
            engine.run(flow)
        assert [(letter.stage, letter.degraded) for letter in engine.dead_letters] == [
            ("s1", True), ("s2", False),
        ]

    def test_injected_crash_is_retried_like_any_failure(self):
        flow, attempts = flaky_flow(fail_times=0, flow_name="injected")
        plan = FaultPlan(
            specs=(
                FaultSpec(name="boom", scope="stage",
                          target="injected/work", kind="crash", max_fires=1),
            ),
            seed=2,
        )
        policy = RetryPolicy(max_attempts=2, backoff_base_s=4.0)
        report = Engine(seed=1, retry=policy, faults=plan).run(flow)
        # The transform ran once: the injected crash struck *before* it.
        assert attempts["count"] == 1
        row = report.stage("work")
        assert row.attempts == 2
        assert row.retry_wait.seconds == 4.0
        injected = [e for e in report.events if e.kind == "fault.injected"]
        assert [e.attr("spec") for e in injected] == ["boom"]
        assert injected[0].attr("fault_kind") == "crash"

    def test_injected_delay_charges_simulated_stall(self):
        flow, _ = flaky_flow(fail_times=0, flow_name="slowflow")
        plan = FaultPlan(
            specs=(
                FaultSpec(name="slow", scope="stage",
                          target="slowflow/work", kind="delay", param=42.0),
            ),
            seed=2,
        )
        report = Engine(seed=1, faults=plan).run(flow)
        row = report.stage("work")
        assert row.attempts == 1
        assert row.retry_wait.seconds == 42.0


class TestResume:
    def make_flow(self, flow_name="resumable"):
        flow = DataFlow(flow_name)

        def source(inputs, ctx):
            ctx.stash["tag"] = "source-ran"
            return Dataset("raw", DataSize.gigabytes(2), version="v1")

        def work(inputs, ctx):
            return inputs["source"].derive("out", DataSize.megabytes(10))

        flow.stage("source", source, site="lab", cache_params={"v": 1})
        flow.stage("work", work, site="lab", cache_params={"v": 1})
        flow.connect("source", "work")
        return flow

    def test_run_to_completion_resumes_after_crashes(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(name="boom", scope="stage",
                          target="resumable/work", kind="crash", max_fires=2),
            ),
            seed=3,
        )
        cache = StageCache()
        injector = plan.arm()
        engines = []

        def make_engine():
            engine = Engine(seed=5, cache=cache, faults=injector)
            engines.append(engine)
            return engine

        report, restarts = run_to_completion(
            lambda: make_engine().run(self.make_flow()), max_restarts=3
        )
        # Two crashing runs (the fault's fire budget), then completion.
        assert restarts == 2
        assert len(engines) == 3
        assert report.outputs["work"].name == "out"
        # The completed prefix replayed from cache on every restart.
        assert cache.hits == 2
        assert report.stashes["source"]["tag"] == "source-ran"

    def test_run_to_completion_gives_up_past_max_restarts(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(name="boom", scope="stage",
                          target="resumable/work", kind="crash",
                          max_fires=None),
            ),
            seed=3,
        )
        cache = StageCache()
        injector = plan.arm()
        with pytest.raises(ExecutionError, match="boom"):
            run_to_completion(
                lambda: Engine(seed=5, cache=cache, faults=injector).run(
                    self.make_flow()
                ),
                max_restarts=2,
            )

    def test_run_to_completion_rejects_negative_restarts(self):
        with pytest.raises(FaultError):
            run_to_completion(lambda: Engine().run(self.make_flow()), max_restarts=-1)

    def test_resumed_prefix_accounting_is_byte_identical(self):
        """The replayed prefix of a resumed run matches the uninterrupted
        run event for event (the checkpoint/resume acceptance gate)."""
        plan = FaultPlan(
            specs=(
                FaultSpec(name="boom", scope="stage",
                          target="resumable/work", kind="crash", max_fires=1),
            ),
            seed=3,
        )
        # Uninterrupted reference: retry rides over the crash in one run.
        reference = Engine(
            seed=5,
            faults=plan,
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
        ).run(self.make_flow())

        # Crashed run + resume: shared cache, shared injector, no retry.
        cache = StageCache()
        injector = plan.arm()
        with pytest.raises(ExecutionError):
            Engine(seed=5, cache=cache, faults=injector).run(self.make_flow())
        resumed = Engine(seed=5, cache=cache, faults=injector).run(
            self.make_flow()
        )

        def prefix(report):
            return fingerprint([event for event in report.events if event.name == "source"])

        assert prefix(resumed) == prefix(reference)
        # The resumed run's own "work" row is a clean first-try success
        # (the transient fault was consumed by the crashed run).
        assert resumed.stage("work").attempts == 1

    def test_fault_digest_keys_cache_entries_apart(self):
        flow = self.make_flow()
        cache = StageCache()
        Engine(seed=5, cache=cache).run(flow)
        clean_entries = len(cache)
        plan = FaultPlan(
            specs=(
                FaultSpec(name="slow", scope="stage", target="resumable/*",
                          kind="delay", param=1.0, max_fires=None),
            ),
            seed=3,
        )
        report = Engine(seed=5, cache=cache, faults=plan).run(flow)
        # The faulted run saw none of the clean run's entries.
        assert len(cache) == 2 * clean_entries
        assert report.stage("source").retry_wait.seconds == 1.0

    def test_degraded_result_replays_from_cache(self):
        def fallback(stage_inputs, ctx, error):
            return stage_inputs["source"].derive(
                "out-degraded", DataSize.megabytes(1)
            )

        flow = self.make_flow()
        flow.stages["work"].retry = RetryPolicy(
            max_attempts=1, backoff_base_s=0.0, fallback=fallback
        )
        plan = FaultPlan(
            specs=(
                FaultSpec(name="boom", scope="stage",
                          target="resumable/work", kind="crash",
                          max_fires=None),
            ),
            seed=3,
        )
        cache = StageCache()
        cold_engine = Engine(seed=5, cache=cache, faults=plan)
        cold = cold_engine.run(flow)
        warm_engine = Engine(seed=5, cache=cache, faults=plan)
        warm = warm_engine.run(flow)
        assert warm.stage("work").degraded
        assert fingerprint(warm) == fingerprint(cold)
        # A hit on a degraded record appends its dead letter again as the
        # stage completes.
        assert len(warm_engine.dead_letters) == len(cold_engine.dead_letters) == 1
