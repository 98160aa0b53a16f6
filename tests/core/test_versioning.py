"""Tests for version identifiers, grades, and snapshot resolution."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import VersioningError
from repro.core.versioning import GradeHistory


class TestGradeHistory:
    def make_physics_grade(self):
        """The paper's canonical scenario: a physics grade evolving over time."""
        grade = GradeHistory("physics")
        grade.assign(100.0, {"runs:1-50": "Recon_v1"})
        grade.assign(200.0, {"runs:51-80": "Recon_v1"})
        grade.assign(300.0, {"runs:1-50": "Recon_v2"})  # reprocessing
        grade.assign(400.0, {"runs:81-99": "Recon_v2"})  # brand-new data
        return grade

    def test_resolution_pins_as_of_versions(self):
        grade = self.make_physics_grade()
        # An analysis started at t=250 sees v1 for everything existing then.
        resolved = grade.resolve(250.0)
        assert resolved["runs:1-50"] == "Recon_v1"
        assert resolved["runs:51-80"] == "Recon_v1"

    def test_reprocessing_stays_hidden(self):
        """Later reprocessing must not leak into a pinned analysis."""
        grade = self.make_physics_grade()
        assert grade.resolve(250.0)["runs:1-50"] == "Recon_v1"

    def test_first_time_data_exception(self):
        """Data taken after the analysis timestamp appears anyway."""
        grade = self.make_physics_grade()
        resolved = grade.resolve(250.0)
        assert resolved["runs:81-99"] == "Recon_v2"

    def test_first_time_exception_can_be_disabled(self):
        grade = self.make_physics_grade()
        resolved = grade.resolve(250.0, include_new_data=False)
        assert "runs:81-99" not in resolved

    def test_timestamp_not_limited_to_magic_values(self):
        """Any date between snapshots resolves to the most recent prior one."""
        grade = self.make_physics_grade()
        for when in (150.0, 199.99, 100.0):
            assert grade.resolve(when)["runs:1-50"] == "Recon_v1"
        assert grade.resolve(300.0)["runs:1-50"] == "Recon_v2"
        assert grade.resolve(1e9)["runs:1-50"] == "Recon_v2"

    def test_resolution_before_everything(self):
        """A timestamp before all data still sees first-time assignments."""
        grade = self.make_physics_grade()
        resolved = grade.resolve(0.0)
        # Everything is "new data" relative to t=0, at its first version.
        assert resolved["runs:1-50"] == "Recon_v1"
        assert resolved["runs:81-99"] == "Recon_v2"
        assert grade.resolve(0.0, include_new_data=False) == {}

    def test_non_monotonic_assignment_rejected(self):
        grade = GradeHistory("physics")
        grade.assign(100.0, {"r1": "v1"})
        with pytest.raises(VersioningError):
            grade.assign(50.0, {"r2": "v1"})

    def test_empty_assignment_rejected(self):
        with pytest.raises(VersioningError):
            GradeHistory("physics").assign(1.0, {})

    def test_empty_grade_name_rejected(self):
        with pytest.raises(VersioningError):
            GradeHistory("")

    def test_versions_of_key(self):
        grade = self.make_physics_grade()
        history = [
            (entry.timestamp, dict(entry.assignments)["runs:1-50"])
            for entry in grade.entries if "runs:1-50" in dict(entry.assignments)
        ]
        assert history == [(100.0, "Recon_v1"), (300.0, "Recon_v2")]

    def test_latest(self):
        grade = self.make_physics_grade()
        latest = grade.resolve(grade.entries[-1].timestamp)
        assert latest["runs:1-50"] == "Recon_v2"
        assert latest["runs:81-99"] == "Recon_v2"
        assert GradeHistory("empty").resolve(0.0) == {}

    def test_same_timestamp_assignments_allowed(self):
        grade = GradeHistory("g")
        grade.assign(10.0, {"a": "v1"})
        grade.assign(10.0, {"b": "v1"})
        assert grade.resolve(10.0) == {"a": "v1", "b": "v1"}


# --- property-based snapshot semantics -------------------------------------

assignments = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1000, allow_nan=False),
        st.sampled_from(["k1", "k2", "k3"]),
        st.sampled_from(["v1", "v2", "v3"]),
    ),
    min_size=1,
    max_size=20,
)


@given(assignments, st.floats(min_value=-10, max_value=1010, allow_nan=False))
def test_resolution_matches_reference_model(events, query_time):
    """GradeHistory.resolve agrees with a brute-force reference model."""
    events = sorted(events, key=lambda e: e[0])
    grade = GradeHistory("g")
    for when, key, version in events:
        grade.assign(when, {key: version})

    expected = {}
    first_seen = {}
    for when, key, version in events:
        if key not in first_seen:
            first_seen[key] = (when, version)
        if when <= query_time:
            expected[key] = version
    for key, (when, version) in first_seen.items():
        if key not in expected and when > query_time:
            expected[key] = version

    assert grade.resolve(query_time) == expected


@given(assignments)
def test_resolution_is_monotone_in_coverage(events):
    """A later timestamp never sees fewer keys than an earlier one."""
    events = sorted(events, key=lambda e: e[0])
    grade = GradeHistory("g")
    for when, key, version in events:
        grade.assign(when, {key: version})
    early = set(grade.resolve(100.0))
    late = set(grade.resolve(2000.0))
    # With the first-time exception, key *coverage* is identical at any
    # timestamp; only the pinned versions differ.
    assert early == late
