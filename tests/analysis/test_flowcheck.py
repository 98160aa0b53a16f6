"""Deep static flow checks: the real figures pass, broken graphs don't."""

import pytest

from repro.analysis import flowcheck
from repro.analysis.flowcheck import (
    FlowSpec,
    StageVolume,
    check_flow,
    figure_flows,
)
from repro.arecibo.pipeline import figure1_flow
from repro.cleo.pipeline import figure2_flow
from repro.core.dataflow import DataFlow, structural_stub
from repro.core.errors import DataflowError


def build(*stage_sites, edges=()):
    """A quick flow: stage_sites are (name, site) pairs."""
    flow = DataFlow("test-flow")
    for name, site in stage_sites:
        flow.stage(name, structural_stub(name), site=site)
    for src, dst in edges:
        flow.connect(src, dst)
    return flow


def codes(issues):
    return [issue.code for issue in issues]


class TestFigures:
    def test_figure1_clean(self):
        assert check_flow(figure1_flow(), flowcheck.FIGURE1_SPEC) == []

    def test_figure2_clean(self):
        assert check_flow(figure2_flow(), flowcheck.FIGURE2_SPEC) == []

    def test_figure_flows_helper_pairs_flows_with_specs(self):
        checked = figure_flows()
        assert [flow.name for flow, _ in checked] == [
            "arecibo-figure1",
            "cleo-figure2",
        ]
        assert all(not check_flow(flow, spec) for flow, spec in checked)

    def test_structural_stub_raises_if_executed(self):
        flow = figure1_flow()
        with pytest.raises(DataflowError, match="structurally"):
            flow.stages["acquire"].fn({}, None)

    def test_builders_match_running_topology(self):
        flow = figure2_flow()
        assert flow.topological_order() == [
            "acquisition",
            "reconstruction",
            "monte-carlo",
            "post-reconstruction",
            "physics-analysis",
        ]
        assert len(flow.edges) == 5


class TestCycleCheck:
    def test_seeded_cycle_named(self):
        flow = build(("a", "x"), ("b", "x"), ("c", "x"),
                     edges=[("a", "b"), ("b", "c"), ("c", "a")])
        issues = check_flow(flow)
        assert codes(issues) == [flowcheck.CYCLE]
        assert "a -> b -> c -> a" in issues[0].message

    def test_cycle_short_circuits_other_checks(self):
        flow = build(("a", "x"), ("b", "y"),
                     edges=[("a", "b"), ("b", "a")])
        issues = check_flow(flow, FlowSpec(expected_sinks=("zzz",)))
        assert codes(issues) == [flowcheck.CYCLE]


class TestDanglingCheck:
    def test_isolated_stage_flagged(self):
        flow = build(("a", "x"), ("b", "x"), ("orphan", "x"),
                     edges=[("a", "b")])
        issues = check_flow(flow)
        assert codes(issues) == [flowcheck.DANGLING]
        assert issues[0].stage == "orphan"

    def test_undeclared_sink_flagged(self):
        flow = build(("a", "x"), ("b", "x"), ("debug-tap", "x"),
                     edges=[("a", "b"), ("a", "debug-tap")])
        issues = check_flow(flow, FlowSpec(expected_sinks=("b",)))
        assert codes(issues) == [flowcheck.DANGLING]
        assert issues[0].stage == "debug-tap"
        assert "never consumed" in issues[0].message

    def test_declared_sinks_pass(self):
        flow = build(("a", "x"), ("b", "x"), edges=[("a", "b")])
        assert check_flow(flow, FlowSpec(expected_sinks=("b",))) == []


class TestVolumeCheck:
    def test_expansion_beyond_bound_flagged(self):
        flow = build(("a", "x"), ("b", "x"), edges=[("a", "b")])
        spec = FlowSpec(
            expected_sinks=("b",),
            volumes={"a": StageVolume("1 TB"), "b": StageVolume("3 TB")},
        )
        issues = check_flow(flow, spec)
        assert codes(issues) == [flowcheck.VOLUME]
        assert issues[0].stage == "b"

    def test_declared_expansion_factor_allows_growth(self):
        flow = build(("a", "x"), ("b", "x"), edges=[("a", "b")])
        spec = FlowSpec(
            expected_sinks=("b",),
            volumes={
                "a": StageVolume("1 TB"),
                "b": StageVolume("3 TB", max_expansion=3.0),
            },
        )
        assert check_flow(flow, spec) == []

    def test_inputs_sum_across_predecessors(self):
        flow = build(("a", "x"), ("b", "x"), ("c", "x"),
                     edges=[("a", "c"), ("b", "c")])
        spec = FlowSpec(
            expected_sinks=("c",),
            volumes={
                "a": StageVolume("1 TB"),
                "b": StageVolume("1 TB"),
                "c": StageVolume("2 TB"),
            },
        )
        assert check_flow(flow, spec) == []

    def test_volume_for_unknown_stage_flagged(self):
        flow = build(("a", "x"))
        spec = FlowSpec(volumes={"ghost": StageVolume("1 TB")})
        issues = check_flow(flow, spec)
        assert codes(issues) == [flowcheck.VOLUME]
        assert issues[0].stage == "ghost"


class TestSiteCheck:
    def test_transport_endpoint_mismatch_flagged(self):
        flow = build(
            ("acquire", "Arecibo"),
            ("ship", "Arecibo->CTC"),
            ("process", "Fermilab"),
            edges=[("acquire", "ship"), ("ship", "process")],
        )
        issues = check_flow(flow)
        assert codes(issues) == [flowcheck.SITE]
        assert "'Fermilab'" in issues[0].message

    def test_origin_mismatch_flagged(self):
        flow = build(
            ("acquire", "Greenbank"),
            ("ship", "Arecibo->CTC"),
            ("process", "CTC"),
            edges=[("acquire", "ship"), ("ship", "process")],
        )
        issues = check_flow(flow)
        assert codes(issues) == [flowcheck.SITE]
        assert "'Greenbank'" in issues[0].message

    def test_site_suffix_is_same_facility(self):
        flow = build(
            ("acquire", "Arecibo"),
            ("ship", "Arecibo->CTC"),
            ("process", "CTC/PALFA"),
            edges=[("acquire", "ship"), ("ship", "process")],
        )
        assert check_flow(flow) == []

    def test_transport_chains_hand_over_at_arrival(self):
        flow = build(
            ("a", "X"),
            ("hop1", "X->Y"),
            ("hop2", "Y->Z"),
            ("b", "Z"),
            edges=[("a", "hop1"), ("hop1", "hop2"), ("hop2", "b")],
        )
        assert check_flow(flow) == []


class TestUnitCheck:
    def test_unparseable_volume_flagged(self):
        flow = build(("a", "x"))
        spec = FlowSpec(volumes={"a": StageVolume("14 parsecs")})
        issues = check_flow(flow, spec)
        assert codes(issues) == [flowcheck.UNITS]
        assert "parsecs" in issues[0].message

    def test_nonpositive_expansion_flagged(self):
        flow = build(("a", "x"))
        spec = FlowSpec(volumes={"a": StageVolume("1 TB", max_expansion=0.0)})
        issues = check_flow(flow, spec)
        assert codes(issues) == [flowcheck.UNITS]


class TestReporting:
    def test_issues_dict_shape(self):
        flow = build(("a", "x"), ("b", "y"), edges=[("a", "b"), ("b", "a")])
        checked = [(flow, check_flow(flow))]
        report = flowcheck.issues_dict(checked)
        assert report["ok"] is False
        assert report["flows"][0]["flow"] == "test-flow"
        assert report["flows"][0]["issues"][0]["code"] == flowcheck.CYCLE

    def test_render_names_flow_and_stage(self):
        flow = build(("a", "x"), ("b", "x"), ("orphan", "x"),
                     edges=[("a", "b")])
        (issue,) = check_flow(flow)
        assert "test-flow/orphan" in issue.render()
