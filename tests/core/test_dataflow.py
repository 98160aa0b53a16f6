"""Tests for dataflow graph structure and the accounting engine."""

import pytest

from repro.core.dataflow import DataFlow, Stage
from repro.core.dataset import Dataset
from repro.core.engine import Engine
from repro.core.errors import DataflowError, ExecutionError
from repro.core.recovery import RetryPolicy
from repro.core.units import DataSize, Duration


def passthrough(inputs, ctx):
    (only,) = inputs.values()
    return only.derive(ctx.stage.name, only.size)


def make_source(size, name="raw"):
    def fn(inputs, ctx):
        return Dataset(name=name, size=size, version="v1")

    return fn


def shrink(factor, name=None):
    def fn(inputs, ctx):
        total = DataSize(sum(d.size.bytes for d in inputs.values()))
        first = next(iter(inputs.values()))
        return first.derive(name or ctx.stage.name, total / factor)

    return fn


class TestDataFlowStructure:
    def test_duplicate_stage_rejected(self):
        flow = DataFlow("f")
        flow.stage("a", passthrough)
        with pytest.raises(DataflowError):
            flow.stage("a", passthrough)

    def test_connect_unknown_stage_rejected(self):
        flow = DataFlow("f")
        flow.stage("a", passthrough)
        with pytest.raises(DataflowError):
            flow.connect("a", "b")

    def test_self_loop_rejected(self):
        flow = DataFlow("f")
        flow.stage("a", passthrough)
        with pytest.raises(DataflowError):
            flow.connect("a", "a")

    def test_duplicate_edge_rejected(self):
        flow = DataFlow("f")
        flow.stage("a", passthrough)
        flow.stage("b", passthrough)
        flow.connect("a", "b")
        with pytest.raises(DataflowError):
            flow.connect("a", "b")

    @pytest.mark.parametrize("cost", [-1.0, float("nan"), float("inf")])
    def test_stage_cost_must_be_finite_and_non_negative(self, cost):
        """NaN and inf pass ``cost < 0``: the flow ran, cached its results, left
        the shared clock at NaN and only then failed without naming a stage."""
        flow = DataFlow("f")
        flow.stage("a", lambda inputs, ctx: None)
        with pytest.raises(DataflowError, match="stage 'b': CPU cost"):
            flow.stage("b", lambda inputs, ctx: None, cpu_seconds_per_gb=cost)
        assert list(flow.stages) == ["a"]

    def test_cycle_detected(self):
        flow = DataFlow("f")
        for name in "abc":
            flow.stage(name, passthrough)
        flow.connect("a", "b")
        flow.connect("b", "c")
        flow.connect("c", "a")
        with pytest.raises(DataflowError, match="cycle"):
            flow.topological_order()

    def test_errors_name_the_flow_and_offenders(self):
        """Every structural raise carries the flow name and the stage/edge."""
        flow = DataFlow("palfa")
        flow.stage("a", passthrough)
        with pytest.raises(DataflowError, match=r"'palfa'.*'missing'.*'a' -> 'missing'"):
            flow.connect("a", "missing")
        with pytest.raises(DataflowError, match=r"'palfa'.*self-loop.*'a'"):
            flow.connect("a", "a")
        flow.stage("b", passthrough)
        flow.connect("a", "b")
        with pytest.raises(DataflowError, match=r"'palfa'.*duplicate edge 'a' -> 'b'"):
            flow.connect("a", "b")
        with pytest.raises(DataflowError, match=r"'palfa'.*chain.*one entry per edge"):
            flow.chain("a", "b", labels=["x", "y"])

    def test_cycle_error_names_the_cycle_path(self):
        flow = DataFlow("loopy")
        for name in "abc":
            flow.stage(name, passthrough)
        flow.connect("a", "b")
        flow.connect("b", "c")
        flow.connect("c", "a")
        with pytest.raises(DataflowError, match="'loopy'.*cycle: a -> b -> c -> a"):
            flow.validate()

    def test_find_cycle(self):
        flow = DataFlow("f")
        for name in "abcd":
            flow.stage(name, passthrough)
        flow.chain("a", "b", "c")
        assert flow.find_cycle() is None
        flow.connect("c", "b")
        assert flow.find_cycle() == ["b", "c", "b"]

    def test_topological_order_respects_edges(self):
        flow = DataFlow("f")
        for name in ("acquire", "process", "archive", "db"):
            flow.stage(name, passthrough)
        flow.chain("acquire", "process", "db")
        flow.connect("acquire", "archive")
        order = flow.topological_order()
        assert order.index("acquire") < order.index("process")
        assert order.index("process") < order.index("db")
        assert order.index("acquire") < order.index("archive")

    def test_sources_and_sinks(self):
        flow = DataFlow("f")
        for name in "abc":
            flow.stage(name, passthrough)
        flow.chain("a", "b", "c")
        assert flow.sources() == ["a"]
        assert flow.sinks() == ["c"]

    def test_chain_label_mismatch_rejected(self):
        flow = DataFlow("f")
        for name in "abc":
            flow.stage(name, passthrough)
        with pytest.raises(DataflowError):
            flow.chain("a", "b", "c", labels=["only-one"])

    def test_empty_flow_invalid(self):
        with pytest.raises(DataflowError):
            DataFlow("f").validate()

    def test_empty_names_rejected(self):
        with pytest.raises(DataflowError):
            DataFlow("")
        with pytest.raises(DataflowError):
            Stage(name="", fn=passthrough)

    def test_render_mentions_stages_and_sites(self):
        flow = DataFlow("arecibo")
        flow.stage("acquire", passthrough, site="Arecibo", description="record spectra")
        flow.stage("process", passthrough, site="CTC")
        flow.connect("acquire", "process", label="raw disks")
        text = flow.render()
        assert "DataFlow: arecibo" in text
        assert "[Arecibo] acquire (source)" in text
        assert "process <- acquire (raw disks)" in text
        assert "record spectra" in text

    def test_render_lists_fanin_channels_in_connect_order(self):
        flow = DataFlow("fanin")
        for name in ("left", "right", "bare", "join"):
            flow.stage(name, passthrough)
        flow.connect("right", "join", label="beams")
        flow.connect("bare", "join")
        flow.connect("left", "join", label="time series")
        assert flow.render().splitlines() == [
            "DataFlow: fanin",
            "  [local] left (source)",
            "  [local] right (source)",
            "  [local] bare (source)",
            "  [local] join <- right (beams), bare, left (time series)",
        ]

    def test_stages_is_a_live_read_only_view(self):
        flow = DataFlow("f")
        work = flow.stage("work", passthrough)
        view = flow.stages
        assert list(view) == ["work"] and view["work"] is work
        late = flow.stage("late", passthrough)
        assert list(view) == ["work", "late"] and view["late"] is late
        assert len(view) == 2 and "late" in view and "absent" not in view
        with pytest.raises(TypeError):
            view["other"] = work
        with pytest.raises(TypeError):
            del view["work"]
        assert list(flow.stages) == ["work", "late"]

    def test_retry_set_through_the_view_takes_effect(self):
        calls = []

        def flaky(inputs, ctx):
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("transient")
            return Dataset(name="out", size=DataSize.gigabytes(1), version="v1")

        flow = DataFlow("f")
        flow.stage("work", flaky)
        flow.stages["work"].retry = RetryPolicy(max_attempts=3)
        report = Engine().run(flow)
        assert report.stage("work").attempts == 3


class TestEngine:
    def test_linear_flow_accounting(self):
        flow = DataFlow("survey")
        flow.stage("acquire", make_source(DataSize.terabytes(14)), site="Arecibo")
        flow.stage("search", shrink(50), site="CTC", cpu_seconds_per_gb=10)
        flow.stage("meta", shrink(20), site="CTC")
        flow.chain("acquire", "search", "meta")
        report = Engine().run(flow)

        acquire = report.stage("acquire")
        search = report.stage("search")
        assert acquire.output_size == DataSize.terabytes(14)
        assert search.input_size == DataSize.terabytes(14)
        assert search.output_size.tb == pytest.approx(14 / 50)
        assert search.cpu_time.seconds == pytest.approx(10 * 14_000)

    def test_outputs_are_sink_datasets(self):
        flow = DataFlow("f")
        flow.stage("src", make_source(DataSize.gigabytes(1)))
        flow.stage("out", passthrough)
        flow.connect("src", "out")
        report = Engine().run(flow)
        assert set(report.outputs) == {"out"}
        assert report.outputs["out"].size == DataSize.gigabytes(1)

    def test_fanin_sums_input_sizes(self):
        flow = DataFlow("f")
        flow.stage("a", make_source(DataSize.gigabytes(3)))
        flow.stage("b", make_source(DataSize.gigabytes(7)))
        flow.stage("join", shrink(1))
        flow.connect("a", "join")
        flow.connect("b", "join")
        report = Engine().run(flow)
        assert report.stage("join").input_size.gb == pytest.approx(10)

    def test_peak_live_storage_tracks_dedispersion_pattern(self):
        """Raw data + derived time series must coexist (the 30 TB claim)."""
        flow = DataFlow("f")
        flow.stage("raw", make_source(DataSize.terabytes(14)))
        # Dedispersion produces output about the size of the raw data while
        # the raw data is still needed by the downstream iterative step.
        flow.stage("dedisperse", shrink(1))
        flow.stage("iterate", shrink(100))
        flow.connect("raw", "dedisperse")
        flow.connect("raw", "iterate")
        flow.connect("dedisperse", "iterate")
        report = Engine().run(flow)
        assert report.peak_live_storage.tb >= 28

    def test_provenance_chain_recorded(self):
        flow = DataFlow("f")
        flow.stage("src", make_source(DataSize.gigabytes(1)))
        flow.stage("mid", passthrough)
        flow.stage("dst", passthrough)
        flow.chain("src", "mid", "dst")
        engine = Engine()
        report = Engine.run(engine, flow)
        dst_prov = report.stage("dst").provenance_id
        ancestors = list(engine.provenance.ancestors(dst_prov))
        assert len(ancestors) == 2
        assert engine.provenance.get(dst_prov).stamp.history  # non-empty

    def test_stage_error_wrapped_with_identity(self):
        def boom(inputs, ctx):
            raise ValueError("bad spectra")

        flow = DataFlow("f")
        flow.stage("explode", boom)
        with pytest.raises(ExecutionError, match="explode"):
            Engine().run(flow)

    def test_non_dataset_return_rejected(self):
        flow = DataFlow("f")
        flow.stage("bad", lambda inputs, ctx: 42)
        with pytest.raises(ExecutionError, match="expected Dataset"):
            Engine().run(flow)

    def test_seed_inputs_reach_sources(self):
        def consume(inputs, ctx):
            seed = inputs["input"]
            return seed.derive("echo", seed.size)

        flow = DataFlow("f")
        flow.stage("src", consume)
        seed = Dataset("seed", DataSize.megabytes(5))
        report = Engine().run(flow, inputs={"src": seed})
        assert report.outputs["src"].size == DataSize.megabytes(5)

    def test_extra_cpu_charge(self):
        def heavy(inputs, ctx):
            ctx.charge_cpu(Duration.hours(2))
            return Dataset("out", DataSize.megabytes(1))

        flow = DataFlow("f")
        flow.stage("heavy", heavy)
        report = Engine().run(flow)
        assert report.stage("heavy").cpu_time.hours_ == pytest.approx(2)

    def test_cpu_time_by_site_and_processors_needed(self):
        flow = DataFlow("f")
        flow.stage("a", make_source(DataSize.gigabytes(100)), site="Arecibo")
        flow.stage("b", shrink(10), site="CTC", cpu_seconds_per_gb=36)
        flow.connect("a", "b")
        report = Engine().run(flow)
        assert report.stage("b").cpu_time.hours_ == pytest.approx(1)
        # 1 CPU-hour arriving every half hour needs 2 processors.
        assert report.processors_needed(Duration.minutes(30)) == pytest.approx(2)

    def test_deterministic_rng(self):
        def noisy(inputs, ctx):
            return Dataset("out", DataSize.from_bytes(ctx.rng.randrange(1, 10**9)))

        flow = DataFlow("f")
        flow.stage("noisy", noisy)
        first = Engine(seed=7).run(flow).outputs["noisy"].size
        second = Engine(seed=7).run(flow).outputs["noisy"].size
        assert first == second

    def test_summary_rows_shape(self):
        flow = DataFlow("f")
        flow.stage("src", make_source(DataSize.gigabytes(1)), site="lab")
        rows = Engine().run(flow).summary_rows()
        assert rows[0]["stage"] == "src"
        assert rows[0]["site"] == "lab"
        assert set(rows[0]) == {
            "stage", "site", "in", "out", "cpu", "attempts", "wait", "degraded",
        }
        assert rows[0]["attempts"] == 1
        assert rows[0]["degraded"] is False
