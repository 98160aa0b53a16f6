"""Tests for provenance stamps and the lineage store."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ProvenanceError
from repro.core.provenance import (
    ProcessingStep,
    ProvenanceStamp,
    ProvenanceStore,
)


def step(module="recon", version="Feb13_04_P2", params=None, inputs=()):
    return ProcessingStep.create(module, version, params or {}, inputs)


class TestProcessingStep:
    def test_describe_is_deterministic(self):
        a = step(params={"b": 2, "a": 1})
        b = step(params={"a": 1, "b": 2})
        assert a.describe() == b.describe()

    def test_describe_mentions_everything(self):
        text = step(params={"gain": 3}, inputs=("run1.dat",)).describe()
        assert "recon@Feb13_04_P2" in text
        assert "gain=3" in text
        assert "run1.dat" in text


class TestProvenanceStamp:
    def test_same_history_same_digest(self):
        assert ProvenanceStamp.initial(step()).digest == ProvenanceStamp.initial(step()).digest

    def test_param_change_changes_digest(self):
        a = ProvenanceStamp.initial(step(params={"threshold": 5}))
        b = ProvenanceStamp.initial(step(params={"threshold": 6}))
        assert not a.matches(b)

    def test_extension_accumulates_history(self):
        stamp = ProvenanceStamp.initial(step("acquire", "v1"))
        stamp = stamp.extend(step("recon", "v2"))
        stamp = stamp.extend(step("postrecon", "v3"))
        assert len(stamp.history) == 3
        assert "acquire@v1" in stamp.history[0]
        assert "postrecon@v3" in stamp.history[2]

    def test_merged_combines_inputs(self):
        left = ProvenanceStamp.initial(step("raw", "v1"))
        right = ProvenanceStamp.initial(step("calib", "v1"))
        merged = ProvenanceStamp.merged([left, right], step("recon", "v2"))
        assert len(merged.history) == 3

    def test_diff_pinpoints_change(self):
        a = ProvenanceStamp.initial(step(params={"t": 1})).extend(step("s2", "v1"))
        b = ProvenanceStamp.initial(step(params={"t": 2})).extend(step("s2", "v1"))
        diff = a.diff(b)
        assert len(diff) == 1
        assert "step 0" in diff[0]

    def test_diff_handles_unequal_lengths(self):
        a = ProvenanceStamp.initial(step())
        b = a.extend(step("extra", "v9"))
        diff = a.diff(b)
        assert any("<absent>" in line for line in diff)

    def test_metadata_bytes_grows_with_history(self):
        a = ProvenanceStamp.initial(step())
        b = a.extend(step("more", "v1"))
        assert b.metadata_bytes > a.metadata_bytes

    def test_empty_stamp(self):
        empty = ProvenanceStamp.empty()
        assert empty.history == ()
        assert empty.matches(ProvenanceStamp.empty())


class TestProvenanceStore:
    def test_record_and_fetch(self):
        store = ProvenanceStore()
        rec = store.record("run42.recon", step())
        assert store.get(rec.record_id) is rec

    def test_unknown_record_raises(self):
        store = ProvenanceStore()
        with pytest.raises(ProvenanceError):
            store.get("prov-999999")

    def test_child_stamp_extends_parent(self):
        store = ProvenanceStore()
        raw = store.record("raw", step("acquire", "v1"))
        recon = store.record("recon", step("recon", "v2"), parents=[raw.record_id])
        assert len(recon.stamp.history) == 2
        assert recon.stamp.history[0] == raw.stamp.history[0]

    def test_consistency_check(self):
        store = ProvenanceStore()
        a = store.record("x", step(params={"cut": 1}))
        b = store.record("y", step(params={"cut": 1}))
        c = store.record("z", step(params={"cut": 2}))
        assert store.consistent([a.record_id, b.record_id])
        assert not store.consistent([a.record_id, c.record_id])
        assert store.consistent([])


@given(
    params=st.dictionaries(
        st.text(min_size=1, max_size=8), st.integers(), min_size=0, max_size=5
    )
)
def test_stamp_digest_is_order_insensitive_in_params(params):
    """Hash depends only on parameter content, not dict insertion order."""
    reordered = dict(reversed(list(params.items())))
    a = ProvenanceStamp.initial(ProcessingStep.create("m", "v", params))
    b = ProvenanceStamp.initial(ProcessingStep.create("m", "v", reordered))
    assert a.matches(b)


@given(st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=6))
def test_stamp_digest_sensitive_to_any_step(modules):
    """Changing any single module name breaks the digest match."""
    stamp = ProvenanceStamp.empty()
    for module in modules:
        stamp = stamp.extend(ProcessingStep.create(module, "v1"))
    other = ProvenanceStamp.empty()
    for index, module in enumerate(modules):
        name = module + "_x" if index == len(modules) // 2 else module
        other = other.extend(ProcessingStep.create(name, "v1"))
    assert not stamp.matches(other)
