"""Engine determinism: byte-identical accounting and provenance.

The contract under test: every stage runs on the calling thread, in
topological order, so ``Engine(max_workers=N)`` — which only sizes the
process shard pool — produces the same :class:`FlowReport` stage rows,
the same ``peak_live_storage``, and the same provenance graph (record ids,
parent chains, stamps) for any ``N``; and the first failure ends the run.
"""

import multiprocessing
import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataflow import DataFlow
from repro.core.dataset import Dataset
from repro.core.engine import Engine, _stage_seed
from repro.core.errors import ExecutionError, ProvenanceError
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.provenance import ProvenanceStore
from repro.core.recovery import RetryPolicy
from repro.core.stagecache import StageCache
from repro.core.telemetry import flow_summary_from_log
from repro.core.units import DataSize, Duration
from tests.conftest import fingerprint


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
        assert fingerprint(parallel) == fingerprint(sequential)
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
        # The flow's span pair and start/finish, six events for each stage.
        assert len(reports[0].events) == 4 + 6 * 101
        for report in reports:
            assert fingerprint(report) == fingerprint(reports[0])
            assert flow_summary_from_log(report.events) == report.summary_rows()

    def test_stage_rng_is_execution_order_independent(self):
        """A stage's random stream depends on (seed, name) only: not on
        where the stage sits in the order, nor on what ran before it."""

        def first_draws(names):
            values = {}

            def record(inputs, ctx):
                values[ctx.stage.name] = ctx.rng.random()
                return Dataset(ctx.stage.name, DataSize.megabytes(1))

            flow = DataFlow("rngs")
            for name in names:
                flow.stage(name, record)
            Engine(seed=9).run(flow)
            return values

        baseline = first_draws(("a", "b", "c"))
        assert first_draws(("c", "b", "a")) == baseline
        assert first_draws(("b",)) == {"b": baseline["b"]}
        # Distinct stages draw distinct streams from the same run seed.
        assert len(set(baseline.values())) == 3

    def test_stage_rng_is_the_seeded_stream_across_reads(self):
        draws = []

        def record(inputs, ctx):
            draws.append(ctx.rng.random())
            draws.append(ctx.rng.random())
            return Dataset(ctx.stage.name, DataSize.megabytes(1))

        flow = DataFlow("rngs")
        flow.stage("a", record)
        Engine(seed=9).run(flow)
        expected = random.Random(_stage_seed(9, "a"))
        assert draws == [expected.random(), expected.random()]

    def test_a_retried_attempt_draws_the_same_first_value(self):
        draws = []

        def flaky(inputs, ctx):
            draws.append(ctx.rng.random())
            if len(draws) == 1:
                raise ValueError("first attempt crashes")
            return Dataset(ctx.stage.name, DataSize.megabytes(1))

        flow = DataFlow("rngs")
        flow.stage("flaky", flaky, retry=RetryPolicy(max_attempts=2))
        report = Engine(seed=9).run(flow)
        assert report.stage("flaky").attempts == 2
        assert draws == [random.Random(_stage_seed(9, "flaky")).random()] * 2

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
    """A raising stage ends the run, whatever ``max_workers`` says, and
    corrupts nothing."""

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

    def test_failure_surfaces_stage_name_and_ends_the_run(self):
        executed = []
        slow_finished = threading.Event()
        flow = self.build_flow(executed, slow_finished)
        with pytest.raises(ExecutionError, match="boom") as excinfo:
            Engine(max_workers=3).run(flow)
        assert excinfo.value.stage == "boom"
        # The sibling before the failure in topological order ran to
        # completion, once, and nothing after the failure was started.
        assert slow_finished.is_set()
        assert executed == ["source", "slow", "boom"]

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
        """With several failing stages, the first in topological order is
        the one surfaced, and the only one dead-lettered."""

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
        engine = Engine(max_workers=4)
        with pytest.raises(ExecutionError) as excinfo:
            engine.run(flow)
        assert excinfo.value.stage == "alpha"
        assert [letter.stage for letter in engine.dead_letters] == ["alpha"]

    def test_a_failure_ends_the_run_before_later_sources(self):
        """Three independent sources, the first failing: neither later one
        is called, whatever ``max_workers`` says, and the run holds the
        failing stage's letter alone."""
        called = []

        def called_source(inputs, ctx):
            called.append(ctx.stage.name)
            return Dataset(ctx.stage.name, DataSize.megabytes(1))

        flow = DataFlow("sources")
        flow.stage("broken", refuse)
        flow.stage("second", called_source)
        flow.stage("third", called_source)
        letters = {}
        for workers in (1, 3):
            engine = Engine(max_workers=workers)
            with pytest.raises(ExecutionError, match="broken"):
                engine.run(flow)
            assert called == []
            letters[workers] = engine.dead_letters
        assert [letter.stage for letter in letters[3]] == ["broken"]
        assert letters[3] == letters[1]

    def test_an_interrupt_in_a_stage_reaches_the_caller_and_closes_the_shard_pool(self):
        class Interrupt(BaseException):
            """Not an ``Exception``: no retry, wrap or dead letter applies."""

        def interrupted(inputs, ctx):
            assert ctx.map_shards(abs, [-1, -2]) == [1, 2]
            raise Interrupt("operator pressed stop")

        flow = DataFlow("interrupted")
        flow.stage("source", make_source(DataSize.megabytes(1)))
        flow.stage("stop", interrupted)
        flow.connect("source", "stop")
        before = threading.active_count()
        engine = Engine(max_workers=2, executor="process")
        with pytest.raises(Interrupt, match="operator pressed stop"):
            engine.run(flow)
        assert engine._shard_pool is None
        assert multiprocessing.active_children() == []
        assert threading.active_count() == before
        assert engine.dead_letters == [] and len(engine.telemetry) == 0


@st.composite
def generated_runs(draw):
    """A DAG of up to 40 stages, edges only from earlier to later stages,
    a few stages that raise or crash, and a retry policy or none."""
    n = draw(st.integers(1, 40))
    preds = [
        draw(st.lists(st.integers(0, index - 1), max_size=3, unique=True)) if index else []
        for index in range(n)
    ]
    failing = draw(
        st.dictionaries(st.integers(0, n - 1), st.sampled_from(["raise", "crash"]), max_size=3)
    )
    retry = draw(st.sampled_from([None, RetryPolicy(max_attempts=2)]))
    return preds, failing, retry


def grow(inputs, ctx):
    total = sum(dataset.size.bytes for dataset in inputs.values())
    return Dataset(ctx.stage.name, DataSize(total + ctx.rng.randrange(1, 1000)))


def refuse(inputs, ctx):
    raise ValueError(f"{ctx.stage.name} refused its inputs")


@settings(max_examples=40, deadline=None)
@given(generated_runs())
def test_any_dag_runs_alike_on_any_worker_count(run):
    """Same canonical log, or the same stage's error and dead letters, at
    1, 2 and 4 workers — and no run leaves a thread behind."""
    preds, failing, retry = run
    flow = DataFlow("generated")
    for index in range(len(preds)):
        flow.stage(f"s{index:02d}", refuse if failing.get(index) == "raise" else grow)
    for index, sources in enumerate(preds):
        for source in sources:
            flow.connect(f"s{source:02d}", f"s{index:02d}")
    crashes = tuple(
        FaultSpec(name=f"crash-{index}", scope="stage", target=f"generated/s{index:02d}")
        for index, kind in sorted(failing.items())
        if kind == "crash"
    )
    outcomes = []
    for max_workers in (1, 2, 4):
        engine = Engine(
            seed=5, max_workers=max_workers, retry=retry,
            faults=FaultPlan(specs=crashes) if crashes else None,
        )
        before = threading.active_count()
        try:
            outcome = ("ok", fingerprint(engine.run(flow)))
        except ExecutionError as exc:
            outcome = ("failed", exc.stage, str(exc))
        assert threading.active_count() == before
        outcomes.append((outcome, engine.dead_letters))
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


def test_every_transform_runs_on_the_calling_thread():
    """``max_workers`` starts no stage thread: every transform of a lanes
    flow sees the caller's thread, and no thread beyond the caller's."""
    caller = threading.get_ident()
    before = threading.active_count()
    seen = []
    flow = lanes_flow(lanes=4, depth=3)
    for stage in flow.stages.values():

        def recorded(inputs, ctx, fn=stage.fn):
            seen.append((threading.get_ident(), threading.active_count()))
            return fn(inputs, ctx)

        stage.fn = recorded
    Engine(max_workers=3).run(flow)
    assert seen == [(caller, before)] * len(flow.stages)


def test_shards_run_on_the_thread_that_runs_their_stage():
    """With the default executor, ``ctx.map_shards`` runs a stage's shards
    inline: under three engine workers, every shard of each of three
    sibling stages sees the thread that runs that stage."""
    seen = {}

    def fan_out(inputs, ctx):
        shard_threads = ctx.map_shards(lambda _: threading.get_ident(), range(4))
        seen[ctx.stage.name] = (threading.get_ident(), shard_threads)
        return grow(inputs, ctx)

    flow = DataFlow("shard-threads")
    flow.stage("source", make_source(DataSize.megabytes(1)))
    for index in range(3):
        flow.stage(f"fan{index}", fan_out)
        flow.connect("source", f"fan{index}")
    Engine(max_workers=3).run(flow)
    assert sorted(seen) == ["fan0", "fan1", "fan2"]
    for stage_thread, shard_threads in seen.values():
        assert shard_threads == [stage_thread] * 4


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
