"""C5 — EventStore snapshot semantics (Section 3.2).

Paper claims regenerated here:
* "a consistent set of data is fully identified by the name of a grade and
  a time at which to snapshot that grade";
* "EventStore finds the most recent snapshot prior to the specified date,
  so the date specified is not limited to a set of magic values";
* "data added for the first time [...] will appear in the snapshot [...]
  without having to change to a later timestamp";
* "physicists have to explicitly change the analysis timestamp" to adopt
  reprocessed data.
"""

import pytest

from repro.cleo.analysis import AnalysisJob
from repro.core.errors import EventStoreError
from repro.eventstore.model import run_key
from repro.eventstore.provenance import stamp_step
from repro.eventstore.scales import PersonalEventStore

from tests.eventstore.conftest import make_events, make_run


def build_history(store, n_runs=30):
    """A realistic grade history: initial pass, reprocessing, new data."""
    for number in range(1, n_runs + 1):
        events = make_events(run_number=number, count=3, seed=number)
        run = make_run(number=number, events=events)
        store.inject(run, events, "Recon_v1", "recon",
                     stamp_step("PassRecon", "v1", {"run": number}))
    store.assign_grade(
        "physics", 100.0, {run_key(n): "Recon_v1" for n in range(1, n_runs + 1)}
    )
    # Reprocessing of the first half lands at t=200.
    for number in range(1, n_runs // 2 + 1):
        events = make_events(run_number=number, count=3, seed=number + 1000)
        run = make_run(number=number, events=events)
        store.inject(run, events, "Recon_v2", "recon",
                     stamp_step("PassRecon", "v2", {"run": number}))
    store.assign_grade(
        "physics", 200.0,
        {run_key(n): "Recon_v2" for n in range(1, n_runs // 2 + 1)},
    )
    # Brand-new runs appear at t=300.
    for number in range(n_runs + 1, n_runs + 6):
        events = make_events(run_number=number, count=3, seed=number)
        run = make_run(number=number, events=events)
        store.inject(run, events, "Recon_v2", "recon",
                     stamp_step("PassRecon", "v2", {"run": number}))
    store.assign_grade(
        "physics", 300.0,
        {run_key(n): "Recon_v2" for n in range(n_runs + 1, n_runs + 6)},
    )
    return n_runs


def test_c5_snapshot_semantics(benchmark, tmp_path, report_rows):
    with PersonalEventStore(tmp_path / "store") as store:
        n_runs = build_history(store)

        resolved = benchmark(store.resolve_runs, "physics", 150.0)

        # Rule 1: analysis pinned at t=150 sees only v1 for existing runs.
        assert all(
            resolved[number] == "Recon_v1" for number in range(1, n_runs + 1)
        )
        # Rule 2: the new runs appear even to the old timestamp.
        assert all(
            resolved[number] == "Recon_v2"
            for number in range(n_runs + 1, n_runs + 6)
        )
        # Rule 3: arbitrary dates resolve to the most recent prior snapshot.
        for when in (100.0, 123.456, 199.999):
            assert store.resolve_runs("physics", when)[1] == "Recon_v1"
        assert store.resolve_runs("physics", 200.0)[1] == "Recon_v2"
        # Rule 4: moving the pin is the explicit way to adopt reprocessing,
        # and the pin only moves forward.
        pinned = AnalysisJob("c5", store, "physics", 150.0)
        adopted = pinned.adopt_newer_data(250.0)
        late = store.resolve_grade("physics", adopted.timestamp)
        assert late[run_key(1)] == "Recon_v2"
        assert late[run_key(n_runs)] == "Recon_v1"  # second half was never reprocessed
        with pytest.raises(EventStoreError):
            adopted.adopt_newer_data(150.0)

        digests_then = store.consistency_digests("physics", 150.0, "recon")
        digests_again = store.consistency_digests("physics", 150.0, "recon")
        assert digests_then == digests_again  # bit-stable resolution

        report_rows(
            "C5: grade+timestamp snapshot resolution",
            [
                {"rule": "pinned analysis sees as-of versions",
                 "paper": "same consistent version throughout the project",
                 "measured": "v1 for all 30 pre-existing runs at t=150"},
                {"rule": "first-time data exception",
                 "paper": "appears without changing the timestamp",
                 "measured": "5 new runs visible at t=150"},
                {"rule": "dates are not magic values",
                 "paper": "most recent snapshot prior to the date",
                 "measured": "t=123.456 == t=100 == t=199.999"},
                {"rule": "reprocessing adopted only explicitly",
                 "paper": "explicitly change the analysis timestamp",
                 "measured": "v2 visible only from t>=200"},
                {"rule": "adopting newer data = moving the pin",
                 "paper": "change the analysis timestamp to a later date",
                 "measured": "pin 150 -> 250: run 1 at v2, run 30 still v1; 250 -> 150 refused"},
            ],
        )
