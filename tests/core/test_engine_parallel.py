"""Parallel engine determinism: byte-identical accounting and provenance.

The contract under test: ``Engine(max_workers=N)`` for any ``N`` produces
the same :class:`FlowReport` stage rows, the same ``peak_live_storage``,
and the same provenance graph (record ids, parent chains, stamps) as the
sequential engine — on synthetic DAGs and on both figure pipelines.
"""

import threading
import time

import pytest

from repro.core.dataflow import DataFlow
from repro.core.dataset import Dataset
from repro.core.engine import Engine
from repro.core.errors import ExecutionError, ProvenanceError
from repro.core.provenance import ProvenanceStore
from repro.core.stagecache import StageCache
from repro.core.telemetry import flow_summary_from_log, strip_wall_clock
from repro.core.units import DataSize, Duration


def make_source(size, name="raw"):
    def fn(inputs, ctx):
        return Dataset(name=name, size=size, version="v1")

    return fn


def noisy_shrink(factor):
    """A stage whose output size depends on its RNG and charges CPU."""

    def fn(inputs, ctx):
        total = sum(d.size.bytes for d in inputs.values())
        jitter = 1.0 + 0.1 * ctx.rng.random()
        ctx.charge_cpu(Duration(ctx.rng.uniform(1.0, 100.0)))
        first = next(iter(inputs.values()))
        return first.derive(ctx.stage.name, DataSize(total * jitter / factor))

    return fn


def diamond_flow():
    """source -> (left, right) -> join -> sink, with stochastic stages."""
    flow = DataFlow("diamond")
    flow.stage("source", make_source(DataSize.gigabytes(10)), site="lab")
    flow.stage("left", noisy_shrink(2), site="east", cpu_seconds_per_gb=5)
    flow.stage("right", noisy_shrink(4), site="west", cpu_seconds_per_gb=7)
    flow.stage("join", noisy_shrink(1), site="lab")
    flow.stage("sink", noisy_shrink(10), site="lab")
    flow.connect("source", "left")
    flow.connect("source", "right")
    flow.connect("left", "join")
    flow.connect("right", "join")
    flow.connect("join", "sink")
    return flow


def wide_flow(width=6):
    """One source fanning out to ``width`` independent branches."""
    flow = DataFlow("wide")
    flow.stage("source", make_source(DataSize.gigabytes(1)))
    for index in range(width):
        flow.stage(f"branch{index}", noisy_shrink(index + 2))
        flow.connect("source", f"branch{index}")
    flow.stage("gather", noisy_shrink(1))
    for index in range(width):
        flow.connect(f"branch{index}", "gather")
    return flow


def lanes_flow(lanes=20, depth=5):
    """``lanes`` chains of ``depth`` trivial stages into one join, declared
    first: many stages, no work — bookkeeping is all there is to get wrong."""
    flow = DataFlow("lanes")
    flow.stage("join", noisy_shrink(1))
    for lane in range(lanes):
        names = [f"l{lane:02d}s{index}" for index in range(depth)]
        flow.stage(names[0], make_source(DataSize.from_bytes(1000.0 + lane)))
        for name in names[1:]:
            flow.stage(name, noisy_shrink(1))
        flow.chain(*names, "join")
    return flow


def report_snapshot(report):
    """Everything a run reports, in comparable form."""
    return {
        "rows": report.summary_rows(),
        "peak": report.peak_live_storage.bytes,
        "cpu": report.total_cpu_time.seconds,
        "outputs": {
            name: (ds.name, ds.size.bytes, ds.version, ds.provenance_id)
            for name, ds in report.outputs.items()
        },
        "provenance_ids": [stage.provenance_id for stage in report.stages],
    }


def recorded_artifacts(store, reserved=4):
    """The artifact recorded under each id a run reserved (in topological
    order), None where the stage never committed."""
    artifacts = []
    for number in range(1, reserved + 1):
        try:
            artifacts.append(store.get(f"prov-{number:06d}").artifact)
        except ProvenanceError:
            artifacts.append(None)
    return artifacts


def provenance_snapshot(report):
    """Full lineage of every stage output: ids, parents, steps, stamps."""
    store = report.provenance
    records = {stage.name: store.get(stage.provenance_id) for stage in report.stages}
    # Every record is some stage's, so the per-stage records with their
    # parent ids are the whole graph.
    return {
        name: (r.record_id, r.artifact, r.step, r.parent_ids, r.stamp.history, r.stamp.digest)
        for name, r in records.items()
    }


def run_with_cache(build, seed, max_workers, cache_mode):
    """One run under ``cache_mode``: no cache, a cold one, or one primed by
    a sequential run.  Returns ``(report, cache)``."""
    cache = None if cache_mode == "none" else StageCache()
    if cache_mode == "warm":
        Engine(seed=seed, cache=cache).run(build())
    report = Engine(seed=seed, max_workers=max_workers, cache=cache).run(build())
    return report, cache


class TestParallelDeterminism:
    # The uncached rows keep the ids they had before the cache parameter.
    @pytest.mark.parametrize(
        "seed,cache_mode",
        [
            pytest.param(seed, mode, id=str(seed) if mode == "none" else f"{seed}-{mode}")
            for mode in ("none", "cold", "warm")
            for seed in (0, 1, 2)
        ],
    )
    @pytest.mark.parametrize("max_workers", [2, 4])
    @pytest.mark.parametrize("build", [diamond_flow, wide_flow])
    def test_matches_sequential(self, build, seed, max_workers, cache_mode):
        sequential, _ = run_with_cache(build, seed, 1, cache_mode)
        parallel, cache = run_with_cache(build, seed, max_workers, cache_mode)
        assert report_snapshot(parallel) == report_snapshot(sequential)
        assert provenance_snapshot(parallel) == provenance_snapshot(sequential)
        assert strip_wall_clock(parallel.events) == strip_wall_clock(sequential.events)
        assert parallel.executed_stages == sequential.executed_stages
        assert parallel.cached_stages == sequential.cached_stages
        stages = build().topological_order()
        if cache_mode == "warm":
            # Every stage is a hit: nothing executes, nothing is dispatched.
            assert parallel.cached_stages == stages
            assert cache.stats()["hits"] == len(stages)
        else:
            assert parallel.executed_stages == stages

    def test_lanes_flow_logs_the_same_for_any_workers_and_cache_state(self):
        cache = StageCache()
        reports = [
            Engine(seed=7).run(lanes_flow()),
            Engine(seed=7, max_workers=2).run(lanes_flow()),
            Engine(seed=7, cache=cache).run(lanes_flow()),
            Engine(seed=7, max_workers=2, cache=cache).run(lanes_flow()),
        ]
        assert reports[2].cached_stages == []
        assert reports[3].executed_stages == []
        logs = [strip_wall_clock(report.events) for report in reports]
        # The flow's span pair and start/finish, six events for each stage.
        assert len(logs[0]) == 4 + 6 * 101
        for report, log in zip(reports, logs):
            assert log == logs[0]
            assert flow_summary_from_log(report.events) == report.summary_rows()
            assert provenance_snapshot(report) == provenance_snapshot(reports[0])

    def test_stage_rng_is_execution_order_independent(self):
        """A stage's random stream depends on (seed, name) only."""
        values = {}

        def record(inputs, ctx):
            values[ctx.stage.name] = ctx.rng.random()
            return Dataset(ctx.stage.name, DataSize.megabytes(1))

        for workers in (1, 2, 4):
            values.clear()
            flow = DataFlow("rngs")
            for name in ("a", "b", "c"):
                flow.stage(name, record)
            Engine(seed=9, max_workers=workers).run(flow)
            if workers == 1:
                baseline = dict(values)
            else:
                assert values == baseline
        # Distinct stages draw distinct streams from the same run seed.
        assert len(set(baseline.values())) == 3

    def test_invalid_max_workers_rejected(self):
        with pytest.raises(ExecutionError):
            Engine(max_workers=0)

    def test_stage_error_wrapped_under_parallel_execution(self):
        def boom(inputs, ctx):
            raise ValueError("bad spectra")

        flow = DataFlow("f")
        flow.stage("ok", make_source(DataSize.megabytes(1)))
        flow.stage("explode", boom)
        with pytest.raises(ExecutionError, match="explode"):
            Engine(max_workers=3).run(flow)


class TestParallelFailurePaths:
    """A stage raising mid-pool must drain cleanly and corrupt nothing."""

    def build_flow(self, executed, slow_finished):
        """source -> (slow, boom) -> after; boom raises while slow runs."""

        def track(name, fn):
            def wrapped(inputs, ctx):
                executed.append(name)
                return fn(inputs, ctx)

            return wrapped

        def slow(inputs, ctx):
            time.sleep(0.2)
            slow_finished.set()
            (only,) = inputs.values()
            return only.derive("slow-out", DataSize.megabytes(2))

        def boom(inputs, ctx):
            raise ValueError("detector glitch")

        def after(inputs, ctx):
            first = next(iter(inputs.values()))
            return first.derive("after-out", DataSize.megabytes(1))

        flow = DataFlow("failing")
        flow.stage("source", track("source", make_source(DataSize.megabytes(8))))
        flow.stage("slow", track("slow", slow))
        flow.stage("boom", track("boom", boom))
        flow.stage("after", track("after", after))
        flow.connect("source", "slow")
        flow.connect("source", "boom")
        flow.connect("slow", "after")
        flow.connect("boom", "after")
        return flow

    def test_failure_surfaces_stage_name_and_drains_pool(self):
        executed = []
        slow_finished = threading.Event()
        flow = self.build_flow(executed, slow_finished)
        with pytest.raises(ExecutionError, match="boom") as excinfo:
            Engine(max_workers=3).run(flow)
        assert excinfo.value.stage == "boom"
        # The in-flight sibling ran to completion before the engine raised
        # (the pool is drained, not abandoned), and nothing downstream of
        # the failure was ever submitted.
        assert slow_finished.is_set()
        assert executed.count("slow") == 1
        assert "after" not in executed

    def test_no_partial_provenance_after_failure(self):
        executed = []
        store = ProvenanceStore()
        flow = self.build_flow(executed, threading.Event())
        with pytest.raises(ExecutionError):
            Engine(provenance=store, max_workers=3).run(flow)
        # Completed stages keep their records (matching what a sequential
        # run would have committed before hitting the failure) ...
        assert len(store) == 2  # source + slow committed; boom and after did not
        # ... and the failed stage and its successors left nothing behind:
        # their reserved ids were never recorded.
        assert recorded_artifacts(store) == ["raw", "slow-out", None, None]

    def test_failure_has_no_telemetry_side_effects(self):
        """A failed run emits no events: the log only ever holds complete,
        replayable runs."""
        executed = []
        engine = Engine(max_workers=3)
        with pytest.raises(ExecutionError):
            engine.run(self.build_flow(executed, threading.Event()))
        assert len(engine.telemetry) == 0

    def test_earliest_topological_failure_wins(self):
        """With several failing stages, the one a sequential run would hit
        first is the one surfaced."""

        def boom(message):
            def fn(inputs, ctx):
                raise ValueError(message)

            return fn

        flow = DataFlow("multi-fail")
        flow.stage("source", make_source(DataSize.megabytes(1)))
        flow.stage("alpha", boom("first"))
        flow.stage("beta", boom("second"))
        flow.connect("source", "alpha")
        flow.connect("source", "beta")
        order = flow.topological_order()
        first_failing = next(n for n in order if n in ("alpha", "beta"))
        letters = {}
        for workers in (1, 4):
            engine = Engine(max_workers=workers)
            with pytest.raises(ExecutionError) as excinfo:
                engine.run(flow)
            assert excinfo.value.stage == first_failing
            letters[workers] = engine.dead_letters
        # Only the surfaced failure is dead-lettered, whatever else failed.
        assert [letter.stage for letter in letters[1]] == [first_failing]
        assert letters[4] == letters[1]

    def test_sequential_and_parallel_commit_same_prefix(self):
        """Both engines leave the same provenance state behind a failure."""
        outcomes = {}
        letters = {}
        for workers in (1, 3):
            store = ProvenanceStore()
            flow = self.build_flow([], threading.Event())
            engine = Engine(provenance=store, max_workers=workers)
            with pytest.raises(ExecutionError):
                engine.run(flow)
            outcomes[workers] = recorded_artifacts(store)
            letters[workers] = engine.dead_letters
        assert outcomes[1] == outcomes[3]
        assert letters[1] == letters[3] and len(letters[1]) == 1


class TestSeedInputAccounting:
    """Externally-fed datasets occupy storage until consumed (bugfix)."""

    def make_flow(self):
        def consume(inputs, ctx):
            seed = inputs["input"]
            return seed.derive("echo", DataSize.gigabytes(1))

        def shrink(inputs, ctx):
            (only,) = inputs.values()
            return only.derive("small", DataSize.megabytes(1))

        flow = DataFlow("fed")
        flow.stage("src", consume)
        flow.stage("reduce", shrink)
        flow.connect("src", "reduce")
        return flow

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_seed_dataset_counts_toward_peak(self, max_workers):
        seed = Dataset("external", DataSize.gigabytes(10))
        report = Engine(max_workers=max_workers).run(
            self.make_flow(), inputs={"src": seed}
        )
        # Seed (10 GB) and the source's output (1 GB) coexist until the
        # source stage completes: the high-water mark must see both.
        assert report.peak_live_storage == DataSize.gigabytes(11)

    def test_unused_seed_inputs_not_counted(self):
        """A seed no source stage consumes was dropped silently — the flow
        ran without it and live storage never saw it.  It is refused."""
        seed = Dataset("external", DataSize.gigabytes(10))
        stray = Dataset("x", DataSize.terabytes(1))
        with pytest.raises(ExecutionError, match=r"\['not-a-stage'\].*sources: \['src'\]"):
            Engine().run(self.make_flow(), inputs={"src": seed, "not-a-stage": stray})

    def test_seed_for_a_non_source_stage_is_refused_before_anything_runs(self):
        executed = []
        flow = DataFlow("fed")
        flow.stage("src", lambda inputs, ctx: executed.append("src"))
        flow.stage("reduce", lambda inputs, ctx: executed.append("reduce"))
        flow.connect("src", "reduce")
        engine = Engine()
        with pytest.raises(ExecutionError, match=r"\['reduce'\] name no source stage"):
            engine.run(flow, inputs={"reduce": Dataset("x", DataSize.gigabytes(1))})
        assert executed == [] and len(engine.provenance) == 0

    def test_seed_release_precedes_downstream(self):
        """After the consumer completes, the seed no longer occupies disk."""

        def consume(inputs, ctx):
            return inputs["input"].derive("echo", DataSize.megabytes(1))

        def big(inputs, ctx):
            (only,) = inputs.values()
            return only.derive("big", DataSize.gigabytes(5))

        flow = DataFlow("release")
        flow.stage("src", consume)
        flow.stage("grow", big)
        flow.connect("src", "grow")
        report = Engine().run(flow, inputs={"src": Dataset("ext", DataSize.gigabytes(10))})
        # Peak is seed+echo (10.001 GB), not seed+echo+big: the seed was
        # released when src completed, before grow ran.
        assert report.peak_live_storage.gb == pytest.approx(10.001)
