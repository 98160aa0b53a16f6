"""The fault subsystem: spec validation, plan digests, injector determinism."""

import pytest

from repro.core.errors import FaultError, InjectedFault
from repro.core.faults import (
    FaultPlan,
    FaultRecord,
    FaultSpec,
    delay_seconds,
)


class TestFaultSpec:
    def test_defaults_model_a_transient_glitch(self):
        spec = FaultSpec(name="glitch", scope="stage", target="*")
        assert spec.kind == "crash"
        assert spec.max_fires == 1
        assert spec.probability == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"scope": ""},
            {"target": ""},
            {"kind": ""},
            {"first_invocation": 0},
            {"max_fires": 0},
            {"probability": -0.1},
            {"probability": 1.5},
            {"param": -2.0},
            {"param": float("nan")},
            {"param": float("inf")},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        base = dict(name="f", scope="stage", target="*")
        base.update(kwargs)
        with pytest.raises(FaultError):
            FaultSpec(**base)

    def test_matches_scope_target_and_site_patterns(self):
        spec = FaultSpec(
            name="f", scope="storage", target="ctc-*/recall", site="CTC*"
        )
        assert spec.matches("storage", "ctc-robot/recall", "CTC/PALFA")
        assert not spec.matches("lane", "ctc-robot/recall", "CTC")
        assert not spec.matches("storage", "offsite-robot/recall", "CTC")
        assert not spec.matches("storage", "ctc-robot/recall", "Arecibo")

    def test_empty_site_pattern_matches_everywhere(self):
        spec = FaultSpec(name="f", scope="stage", target="*")
        assert spec.matches("stage", "flow/any", "")
        assert spec.matches("stage", "flow/any", "Cornell")


class TestFaultPlan:
    def test_duplicate_spec_names_rejected(self):
        spec = FaultSpec(name="dup", scope="stage", target="*")
        with pytest.raises(FaultError, match="dup"):
            FaultPlan(specs=(spec, spec))

    def test_digest_is_stable_and_content_addressed(self):
        plan = FaultPlan(
            specs=(FaultSpec(name="f", scope="stage", target="*"),), seed=3
        )
        same = FaultPlan(
            specs=(FaultSpec(name="f", scope="stage", target="*"),), seed=3
        )
        reseeded = FaultPlan(
            specs=(FaultSpec(name="f", scope="stage", target="*"),), seed=4
        )
        retargeted = FaultPlan(
            specs=(FaultSpec(name="f", scope="stage", target="x/*"),), seed=3
        )
        assert plan.digest() == same.digest()
        assert plan.digest() != reseeded.digest()
        assert plan.digest() != retargeted.digest()
        assert plan.digest() != FaultPlan().digest()

    def test_len_counts_specs(self):
        assert len(FaultPlan()) == 0
        assert (
            len(FaultPlan(specs=(FaultSpec(name="f", scope="s", target="*"),)))
            == 1
        )


class TestFaultInjector:
    def plan(self, **kwargs):
        defaults = dict(name="f", scope="stage", target="flow/work")
        defaults.update(kwargs)
        return FaultPlan(specs=(FaultSpec(**defaults),), seed=9)

    def test_fire_returns_records_and_counts_invocations(self):
        injector = self.plan(kind="delay", param=5.0, max_fires=None).arm()
        first = injector.fire("stage", "flow/work")
        second = injector.fire("stage", "flow/work")
        assert [record.invocation for record in first + second] == [1, 2]
        assert first[0].kind == "delay"
        assert first[0].param == 5.0
        assert len(injector) == 2

    def test_max_fires_budget_is_per_target(self):
        injector = self.plan(target="flow/*", max_fires=1).arm()
        assert injector.fire("stage", "flow/a")
        assert injector.fire("stage", "flow/b")  # separate target, own budget
        assert not injector.fire("stage", "flow/a")  # budget spent

    def test_first_invocation_arms_late(self):
        injector = self.plan(first_invocation=3, max_fires=None).arm()
        assert not injector.fire("stage", "flow/work")
        assert not injector.fire("stage", "flow/work")
        assert injector.fire("stage", "flow/work")

    def test_near_misses_still_count_invocations(self):
        # probability=0 never fires, but the invocation counter advances,
        # so "first N invocations" means real invocations.
        injector = self.plan(probability=0.0, max_fires=None).arm()
        injector.fire("stage", "flow/work")
        injector.fire("stage", "flow/work")
        assert injector._invocations[("f", "flow/work")] == 2
        assert len(injector) == 0

    def test_probability_streams_are_seeded_per_target(self):
        plan = self.plan(target="flow/*", probability=0.5, max_fires=None)
        runs = []
        for _ in range(2):
            injector = plan.arm()
            decisions = []
            for target in ("flow/a", "flow/b"):
                decisions.append(
                    [bool(injector.fire("stage", target)) for _ in range(20)]
                )
            runs.append(decisions)
        # Two armings of the same plan make identical decisions...
        assert runs[0] == runs[1]
        # ...and distinct targets draw from distinct streams.
        assert runs[0][0] != runs[0][1]
        fires = sum(runs[0][0]) + sum(runs[0][1])
        assert 0 < fires < 40

    def test_check_raises_on_crash_and_returns_soft_faults(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(name="slow", scope="stage", target="*",
                          kind="delay", param=3.0),
                FaultSpec(name="boom", scope="stage", target="*",
                          kind="crash"),
            ),
            seed=1,
        )
        injector = plan.arm()
        with pytest.raises(InjectedFault) as excinfo:
            injector.check("stage", "flow/work")
        assert excinfo.value.record is not None
        assert excinfo.value.record.spec == "boom"
        # Both budgets were consumed on that invocation: the next check
        # fires neither, which is what lets a retry get past a transient.
        assert injector.check("stage", "flow/work") == []

    def test_shared_injector_does_not_refire_exhausted_faults(self):
        # The crash/resume idiom: one injector carried across two "runs".
        injector = self.plan(max_fires=1).arm()
        assert injector.fire("stage", "flow/work")  # run 1 consumed it
        assert not injector.fire("stage", "flow/work")  # resume is clean

    def test_fire_counts_aggregates_per_spec(self):
        injector = self.plan(target="flow/*", max_fires=None).arm()
        records = injector.fire("stage", "flow/a") + injector.fire("stage", "flow/b")
        assert [(record.spec, record.target) for record in records] == [
            ("f", "flow/a"), ("f", "flow/b")
        ]


class TestRecordHelpers:
    def test_record_round_trips_through_attrs(self):
        record = FaultRecord(
            spec="f", scope="beam", target="p0001/b3", kind="drop",
            invocation=2, param=1.0,
        )
        assert FaultRecord(**record.as_attrs()) == record

    def test_delay_seconds_sums_only_delay_kinds(self):
        records = [
            FaultRecord(spec="a", scope="s", target="t", kind="delay",
                        invocation=1, param=10.0),
            FaultRecord(spec="b", scope="s", target="t", kind="crash",
                        invocation=1, param=99.0),
            FaultRecord(spec="c", scope="s", target="t", kind="delay",
                        invocation=1, param=2.5),
        ]
        assert delay_seconds(records) == 12.5
        assert delay_seconds([]) == 0.0
