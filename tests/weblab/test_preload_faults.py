"""Preload fault shims: stale serves, crashes, and injected delays."""

import pytest

from repro.core.errors import InjectedFault
from repro.core.faults import FaultPlan, FaultSpec
from repro.weblab.arcformat import ArcRecord, write_arc
from repro.weblab.metadb import WebLabDatabase
from repro.weblab.pagestore import PageStore
from repro.weblab.preload import PreloadSubsystem


def arm(*specs, seed=11):
    return FaultPlan(specs=tuple(specs), seed=seed).arm()


@pytest.fixture
def arc_file(tmp_path):
    records = [
        ArcRecord(
            url=f"http://site{i}.example.com/page",
            ip="10.0.0.1",
            archive_date="19960101000000",
            content_type="text/html",
            content=b"<html>hello</html>",
        )
        for i in range(3)
    ]
    path = tmp_path / "crawl.arc"
    write_arc(path, records)
    return path


@pytest.fixture
def preload_parts(tmp_path):
    database = WebLabDatabase()
    pagestore = PageStore(tmp_path / "pages")
    yield database, pagestore
    database.close()
    pagestore.close()


class TestPreloadFaultShims:
    def test_stale_fault_skips_the_batch_and_counts_the_degradation(
        self, preload_parts, arc_file
    ):
        database, pagestore = preload_parts
        preload = PreloadSubsystem(
            database,
            pagestore,
            faults=arm(
                FaultSpec(
                    name="stall", scope="preload", target="weblab/preload",
                    kind="stale", max_fires=1,
                )
            ),
        )
        delta = preload.run([(arc_file, 0)])
        # Readers keep the previous state: nothing was loaded...
        assert delta.pages == 0
        assert database.page_count() == 0
        # ...and the degradation is recorded, not silent.
        assert preload.stale_serves == 1
        assert preload.stale_files == 1
        # The fault was transient; the next run catches up normally.
        recovered = preload.run([(arc_file, 0)])
        assert recovered.pages == 3
        assert database.page_count() == 3

    def test_crash_fault_raises_before_any_file_is_parsed(
        self, preload_parts, arc_file
    ):
        database, pagestore = preload_parts
        preload = PreloadSubsystem(
            database,
            pagestore,
            faults=arm(
                FaultSpec(
                    name="loader-died", scope="preload",
                    target="weblab/preload", kind="crash", max_fires=1,
                )
            ),
        )
        with pytest.raises(InjectedFault):
            preload.run([(arc_file, 0)])
        assert database.page_count() == 0
        # A retry gets past the transient crash cleanly.
        assert preload.run([(arc_file, 0)]).pages == 3

    def test_delay_fault_stretches_recorded_elapsed_time(
        self, preload_parts, arc_file
    ):
        database, pagestore = preload_parts
        preload = PreloadSubsystem(
            database,
            pagestore,
            faults=arm(
                FaultSpec(
                    name="slow-disk", scope="preload",
                    target="weblab/preload", kind="delay", param=900.0,
                    max_fires=1,
                )
            ),
        )
        preload.run([(arc_file, 0)])
        assert preload.lifetime_stats.elapsed_s >= 900.0
