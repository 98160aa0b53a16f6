"""Crawl-registration error discipline in the preload subsystem.

The bug this pins down: the bulk loader used to swallow *every*
``WebLabError`` around ``register_crawl``, so a genuinely broken metadata
database looked like a successful (empty) preload.  Only the expected
duplicate-registration conflict may be ignored.
"""

import pytest

from repro.core.errors import DuplicateCrawlError, WebLabError
from repro.weblab.arcformat import ArcRecord, write_arc
from repro.weblab.metadb import WebLabDatabase
from repro.weblab.pagestore import PageStore
from repro.weblab.preload import PreloadStats, PreloadSubsystem


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


class TestRegisterCrawlErrors:
    def test_conflicting_registration_raises_duplicate(self):
        database = WebLabDatabase()
        try:
            database.register_crawl(0, 100.0)
            database.register_crawl(0, 100.0)  # idempotent
            with pytest.raises(DuplicateCrawlError, match="crawl 0"):
                database.register_crawl(0, 999.0)
        finally:
            database.close()

    def test_duplicate_is_a_weblab_error(self):
        # Existing except WebLabError sites keep catching the duplicate.
        assert issubclass(DuplicateCrawlError, WebLabError)


class TestPreloadRegistration:
    def test_preregistered_real_time_is_tolerated(self, preload_parts, arc_file):
        """Callers register real crawl times beforehand; the loader's
        placeholder conflicts and that duplicate must be swallowed."""
        database, pagestore = preload_parts
        database.register_crawl(0, 820454400.0)  # != the placeholder 0.0
        stats = PreloadSubsystem(database, pagestore).run([(arc_file, 0)])
        assert stats.pages == 3
        # The real time survived; the placeholder never overwrote it.
        assert database.db.query_value(
            "SELECT crawl_time FROM crawls WHERE crawl_index = 0"
        ) == 820454400.0

    def test_other_database_failures_propagate(
        self, preload_parts, arc_file, monkeypatch
    ):
        """A broken metadata database must abort the run, not fabricate
        an empty-but-successful preload."""
        database, pagestore = preload_parts

        def broken(index, time):
            raise WebLabError("metadata database unreachable")

        monkeypatch.setattr(database, "register_crawl", broken)
        preload = PreloadSubsystem(database, pagestore)
        with pytest.raises(WebLabError, match="unreachable"):
            preload.run([(arc_file, 0)])
        assert database.page_count() == 0


class TestZeroStats:
    def test_preload_stats_zero(self):
        zero = PreloadStats()
        assert zero.pages == 0 and zero.elapsed_s == 0.0
        assert zero.throughput.bytes_per_second == 0.0
