"""The accelerated serving path: covering indexes, single-fetch navigation,
cached facades, and metering."""

import pytest

from repro.core.readcache import ReadCache
from repro.core.telemetry import Telemetry
from repro.core.workload import (
    OpSpec,
    TenantSpec,
    Trace,
    TraceReplayer,
    WorkloadSpec,
    generate_trace,
)
from repro.weblab.pagestore import PageStore
from repro.weblab.retro import RetroBrowser
from repro.weblab.services import WebLabServices
from repro.weblab.subsets import SubsetCriteria
from tests.conftest import fingerprint
from tests.test_pins import PINS


def explain(db, sql, params):
    rows = db.query(f"EXPLAIN QUERY PLAN {sql}", params)
    return " | ".join(str(row["detail"]) for row in rows)


class TestCoveringIndexes:
    def test_page_pointer_query_is_index_only(self, built_weblab):
        weblab, _, _ = built_weblab
        plan = explain(
            weblab.database.db,
            "SELECT url, fetched_at, crawl_index, content_hash FROM pages "
            "WHERE url = ? AND fetched_at <= ? ORDER BY fetched_at DESC LIMIT 1",
            ("http://x/", 1.0),
        )
        assert "USING COVERING INDEX" in plan
        assert "SCAN pages" not in plan

    def test_outlink_query_is_index_only_and_sort_free(self, built_weblab):
        weblab, _, _ = built_weblab
        plan = explain(
            weblab.database.db,
            "SELECT dst_url FROM links WHERE crawl_index = ? AND src_url = ? "
            "ORDER BY id",
            (0, "http://x/"),
        )
        assert "USING COVERING INDEX" in plan
        assert "SCAN links" not in plan
        assert "TEMP B-TREE" not in plan  # ORDER BY rides the index

    def test_pointer_method_agrees_with_page_as_of(self, built_weblab):
        weblab, _, _ = built_weblab
        url = weblab.database.db.query_value("SELECT url FROM pages LIMIT 1")
        as_of = weblab.database.captures_of(url)[-1]
        full = weblab.database.db.query_one(
            "SELECT * FROM pages WHERE url = ? AND fetched_at <= ? "
            "ORDER BY fetched_at DESC LIMIT 1",
            (url, as_of),
        )
        pointer = weblab.database.page_pointer_as_of(url, as_of)
        assert pointer is not None
        assert pointer["fetched_at"] == full["fetched_at"]
        assert pointer["crawl_index"] == full["crawl_index"]
        assert pointer["content_hash"] == full["content_hash"]
        assert weblab.database.page_pointer_as_of(url, -1.0) is None

    def test_outlinks_method_preserves_load_order(self, built_weblab):
        weblab, _, _ = built_weblab
        row = weblab.database.db.query_one(
            "SELECT crawl_index, src_url FROM links LIMIT 1"
        )
        ordered = weblab.database.db.query(
            "SELECT dst_url FROM links WHERE crawl_index = ? AND src_url = ? "
            "ORDER BY rowid",
            (row["crawl_index"], row["src_url"]),
        )
        assert weblab.database.outlinks(row["crawl_index"], row["src_url"]) == [
            r["dst_url"] for r in ordered
        ]


class TestSingleFetchNavigation:
    def find_navigable(self, weblab):
        row = weblab.database.db.query_one(
            "SELECT l.crawl_index, l.src_url FROM links l "
            "JOIN pages p ON p.url = l.dst_url AND p.crawl_index = l.crawl_index "
            "LIMIT 1"
        )
        as_of = weblab.database.db.query_value(
            "SELECT crawl_time FROM crawls WHERE crawl_index = ?",
            (row["crawl_index"],),
        )
        return row["src_url"], as_of + 1.0

    def test_navigate_fetches_content_once(self, built_weblab, monkeypatch):
        weblab, _, _ = built_weblab
        src_url, as_of = self.find_navigable(weblab)
        fetches = []
        real_get = PageStore.get
        monkeypatch.setattr(
            PageStore, "get", lambda self, digest: fetches.append(digest) or real_get(self, digest)
        )
        retro = RetroBrowser(weblab.database, weblab.pagestore)
        page = retro.navigate(src_url, as_of, 0)
        assert len(fetches) == 1  # destination only; the source is never fetched
        assert page.url == retro.outlinks(src_url, as_of)[0]

    def test_outlinks_endpoint_fetches_nothing(self, built_weblab, monkeypatch):
        weblab, _, _ = built_weblab
        src_url, as_of = self.find_navigable(weblab)
        monkeypatch.setattr(
            PageStore,
            "get",
            lambda self, digest: pytest.fail("outlinks lookup touched content"),
        )
        retro = RetroBrowser(weblab.database, weblab.pagestore)
        assert len(retro.outlinks(src_url, as_of)) >= 1


class TestCachedServing:
    def test_cached_browse_equals_uncached(self, built_weblab):
        weblab, _, _ = built_weblab
        cold = WebLabServices(weblab, telemetry=Telemetry())
        warm = WebLabServices(
            weblab, telemetry=Telemetry(), cache=ReadCache(capacity=256)
        )
        urls = [
            row["url"]
            for row in weblab.database.db.query(
                "SELECT DISTINCT url FROM pages LIMIT 10"
            )
        ]
        for url in urls:
            as_of = weblab.database.captures_of(url)[-1]
            for _ in range(2):
                a = cold.browse(url, as_of)
                b = warm.browse(url, as_of)
                assert (a.content, a.outlinks, a.fetched_at) == (
                    b.content,
                    b.outlinks,
                    b.fetched_at,
                )
        assert warm.cache.stats.hits > 0

    def test_cached_navigate_equals_uncached(self, built_weblab):
        weblab, _, _ = built_weblab
        src_url, as_of = TestSingleFetchNavigation().find_navigable(weblab)
        cold = WebLabServices(weblab, telemetry=Telemetry())
        warm = WebLabServices(
            weblab, telemetry=Telemetry(), cache=ReadCache(capacity=256)
        )
        for _ in range(3):
            a = cold.navigate(src_url, as_of, 0)
            b = warm.navigate(src_url, as_of, 0)
            assert a.url == b.url and a.content == b.content

    def test_negative_browse_is_cached(self, built_weblab):
        from repro.core.errors import WebLabError

        weblab, _, _ = built_weblab
        warm = WebLabServices(
            weblab, telemetry=Telemetry(), cache=ReadCache(capacity=16)
        )
        for _ in range(3):
            with pytest.raises(WebLabError, match="no capture"):
                warm.browse("http://never.example/", 1e12)
        assert warm.cache.stats.negative_hits == 2

    def test_cached_subset_extraction(self, built_weblab):
        weblab, _, _ = built_weblab
        criteria = SubsetCriteria(tlds=("edu",))
        cold = WebLabServices(weblab, telemetry=Telemetry())
        warm = WebLabServices(
            weblab, telemetry=Telemetry(), cache=ReadCache(capacity=16)
        )
        expected = cold.extract_subset("edu_slice", criteria)
        assert warm.extract_subset("edu_slice", criteria) == expected
        assert warm.extract_subset("edu_slice", criteria) == expected
        assert warm.cache.stats.hits == 1
        # Different criteria → different token → fresh extraction.
        other = SubsetCriteria(tlds=("com",))
        assert f"subset:edu_slice:{criteria.cache_token()}" in warm.cache
        assert criteria.cache_token() != other.cache_token()


class TestPinnedScanReplay:
    """The read path's output on crawler-shaped traffic, pinned.

    Near-uniform keys over a cache far smaller than the key space: almost
    every lookup is a miss, an admission decision and often an eviction —
    the miss path end to end.  Its log and counters match what they were
    before that path was rewritten to pay its per-key costs once per
    facade; any change to an event's kind, name, attrs, order or
    sim-time, or to a counter, moves the pin.
    """

    def scan_trace(self, weblab):
        db = weblab.database.db
        urls = tuple(
            row["url"] for row in db.query("SELECT DISTINCT url FROM pages ORDER BY url")
        )
        navigable = tuple(
            row["src_url"]
            for row in db.query(
                "SELECT DISTINCT l.src_url FROM links l "
                "JOIN pages p ON p.url = l.src_url AND p.crawl_index = l.crawl_index "
                "JOIN pages d ON d.url = l.dst_url AND d.crawl_index = l.crawl_index "
                "ORDER BY l.src_url"
            )
        )
        as_of = float(db.query_value("SELECT max(fetched_at) FROM pages")) + 1.0
        spec = WorkloadSpec(
            name="scan",
            seed=19,
            duration_s=100.0,
            tenants=(
                TenantSpec(
                    name="crawler",
                    rate_per_s=4.5,
                    ops=(
                        OpSpec(op="browse", weight=5.0, keys=urls, zipf_s=0.2),
                        OpSpec(op="navigate", weight=2.0, keys=navigable, zipf_s=0.2),
                        OpSpec(op="history", weight=2.0, keys=urls, zipf_s=0.2),
                    ),
                ),
            ),
        )
        requests = generate_trace(spec).requests[:400]
        assert len(requests) == 400
        return Trace(requests, name="scan", seed=19), as_of

    def test_log_counters_and_service_stats_are_the_parents(self, built_weblab):
        weblab, _, _ = built_weblab
        trace, as_of = self.scan_trace(weblab)
        bus = Telemetry()
        services = WebLabServices(
            weblab, telemetry=bus, cache=ReadCache(capacity=16, telemetry=bus)
        )
        report = TraceReplayer(
            {
                "browse": lambda request: services.browse(request.key, as_of),
                "navigate": lambda request: services.navigate(request.key, as_of, 0),
                "history": lambda request: services.capture_history(request.key),
            },
            telemetry=bus,
        ).replay(trace)
        assert (report.served, report.failed, report.rejected) == (400, 0, 0)
        stats = services.cache.stats
        assert stats.misses > 10 * (stats.hits + stats.negative_hits) > 0
        assert stats.evictions > 0 and stats.admission_rejected > 0
        assert services.service_stats == {"browse": 212, "capture_history": 109, "navigate": 79}
        assert fingerprint(bus) == PINS["serving scan replay"]
