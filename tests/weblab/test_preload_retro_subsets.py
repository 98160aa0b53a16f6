"""Tests for the preload subsystem, metadata DB, retro browser, and subsets."""

import os
from contextlib import closing

import pytest

from repro.core.errors import WebLabError
from repro.weblab.metadb import WebLabDatabase
from repro.weblab.pagestore import PageStore, content_hash
from repro.weblab.preload import PreloadConfig
from repro.weblab.retro import RetroBrowser
from repro.weblab.services import build_weblab
from repro.weblab.subsets import (
    SubsetCriteria,
    extract_subset,
    list_subsets,
    stratified_sample,
)
from repro.weblab.synthweb import SyntheticWebConfig


class TestPageStore:
    @pytest.fixture
    def store(self, tmp_path):
        with closing(PageStore(tmp_path / "pages")) as store:
            yield store

    def test_put_get_round_trip(self, store):
        digest = store.put(b"hello world")
        assert store.get(digest) == b"hello world"
        assert digest in store

    def test_deduplication(self, store):
        a = store.put(b"same content")
        b = store.put(b"same content")
        assert a == b
        assert store.total_size().bytes == len(b"same content")

    def test_missing_content(self, store):
        with pytest.raises(WebLabError):
            store.get(content_hash(b"never stored"))

    def test_total_size(self, store):
        store.put(b"x" * 100)
        store.put(b"y" * 50)
        assert store.total_size().bytes == 150

    @pytest.mark.parametrize(
        "digest",
        [
            "../../../../etc/hostname",  # "/." is absolute: pathlib dropped the root
            "/etc/hostname",
            "ab/../../outside",
            "abcd\x00ef",
            "ABCDEF0123",  # content_hash is lowercase
            "",
            "abc",
        ],
    )
    def test_only_a_content_hash_is_turned_into_a_path(self, store, digest):
        (store.root.parent / "outside").write_bytes(b"not a blob")
        with pytest.raises(WebLabError, match="bad content hash"):
            store.get(digest)
        with pytest.raises(WebLabError, match="bad content hash"):
            digest in store

    def test_missing_content_message_names_the_digest(self, store):
        digest = content_hash(b"never stored")
        assert digest not in store
        with pytest.raises(WebLabError, match=f"page store has no content '{digest}'"):
            store.get(digest)

    def test_reopened_store_indexes_what_the_writer_wrote(self, tmp_path):
        writer = PageStore(tmp_path)
        for content in (b"first", b"", b"second" * 1000, b"first"):
            writer.put(content)
        reopened = PageStore(tmp_path)
        assert reopened._index == writer._index
        assert len(reopened) == 3
        assert reopened.get(content_hash(b"second" * 1000)) == b"second" * 1000
        writer.close()
        reopened.close()

    def test_a_store_opened_before_a_put_serves_the_page(self, tmp_path):
        reader = PageStore(tmp_path)
        writer = PageStore(tmp_path)
        assert content_hash(b"late page") not in reader
        digest = writer.put(b"late page")
        assert digest in reader
        assert reader.get(digest) == b"late page"
        assert reader.total_size().bytes == len(b"late page")
        writer.close()
        reader.close()


class TestPreload:
    def test_everything_loaded(self, built_weblab):
        weblab, report, _ = built_weblab
        assert report.pages_loaded == weblab.database.page_count()
        assert report.links_loaded == weblab.database.link_count()
        assert report.pages_loaded > 0
        assert report.links_loaded > 0
        assert report.preload.throughput.bytes_per_second > 0

    def test_content_retrievable_via_hash(self, built_weblab):
        weblab, _, _ = built_weblab
        row = weblab.database.db.query_one(
            "SELECT content_hash, size_bytes FROM pages LIMIT 1"
        )
        content = weblab.pagestore.get(row["content_hash"])
        assert len(content) == row["size_bytes"]

    def test_crawl_page_counts_updated(self, built_weblab):
        weblab, _, _ = built_weblab
        for crawl_index in weblab.database.crawl_indexes():
            counted = weblab.database.page_count(crawl_index)
            recorded = weblab.database.db.query_value(
                "SELECT page_count FROM crawls WHERE crawl_index = ?", (crawl_index,)
            )
            assert counted == recorded > 0

    def test_pagestore_dedups_unchanged_pages(self, built_weblab):
        """Crawls re-fetch mostly unchanged pages; the store keeps one copy."""
        weblab, report, _ = built_weblab
        distinct_hashes = weblab.database.db.query_value(
            "SELECT count(DISTINCT content_hash) FROM pages"
        )
        assert len(weblab.pagestore) == distinct_hashes
        assert distinct_hashes < report.pages_loaded

    def test_config_validation(self):
        with pytest.raises(WebLabError):
            PreloadConfig(batch_size=0)

    @pytest.mark.parametrize("n_crawls", [1, 4])
    def test_the_page_store_is_one_file(self, tmp_path, n_crawls):
        config = SyntheticWebConfig(
            seed=5, n_domains=4, initial_pages=20, new_pages_per_crawl=5
        )
        weblab, _, _ = build_weblab(tmp_path, config, n_crawls=n_crawls)
        weblab.close()
        assert [path.name for path in weblab.pagestore.root.iterdir()] == ["pages.pack"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_close_leaves_no_open_descriptor(self, tmp_path):
        def open_under_root():
            found = []
            for fd in os.listdir("/proc/self/fd"):
                try:
                    target = os.readlink(f"/proc/self/fd/{fd}")
                except OSError:
                    continue
                if target.startswith(str(tmp_path)):
                    found.append(target)
            return found

        config = SyntheticWebConfig(seed=5, n_domains=4, initial_pages=20)
        weblab, _, _ = build_weblab(tmp_path, config, n_crawls=2)
        assert str(weblab.pagestore.path) in open_under_root()
        weblab.close()
        assert open_under_root() == []


class TestMetaDb:
    def test_page_as_of_picks_latest_prior(self, built_weblab):
        weblab, _, _ = built_weblab
        url = weblab.database.db.query_value(
            "SELECT url FROM pages GROUP BY url HAVING count(*) >= 3 LIMIT 1"
        )
        captures = weblab.database.captures_of(url)
        midpoint = (captures[1] + captures[2]) / 2
        row = weblab.database.page_pointer_as_of(url, midpoint)
        assert row["fetched_at"] == captures[1]

    def test_page_as_of_before_first_capture(self, built_weblab):
        weblab, _, _ = built_weblab
        url = weblab.database.db.query_value("SELECT url FROM pages LIMIT 1")
        first = weblab.database.captures_of(url)[0]
        assert weblab.database.page_pointer_as_of(url, first - 1.0) is None

    def test_duplicate_crawl_registration(self, built_weblab):
        weblab, _, _ = built_weblab
        index = weblab.database.crawl_indexes()[0]
        time = weblab.database.db.query_value(
            "SELECT crawl_time FROM crawls WHERE crawl_index = ?", (index,)
        )
        weblab.database.register_crawl(index, time)  # idempotent
        with pytest.raises(WebLabError):
            weblab.database.register_crawl(index, time + 99)


def _page_row(url, crawl_index):
    return {
        "url": url, "domain": url.split("/")[2], "tld": "com",
        "crawl_index": crawl_index, "fetched_at": float(crawl_index), "ip": "10.0.0.1",
        "mime": "text/html", "size_bytes": 1, "content_hash": "0" * 40,
    }


class TestPageBatchCounts:
    def test_a_batch_spanning_crawls_counts_each_crawl(self):
        with WebLabDatabase() as database:
            database.register_crawl(0, 0.0)
            database.register_crawl(1, 1.0)
            database.load_page_batch([
                _page_row("http://a.example.com/", 0),
                _page_row("http://a.example.com/", 1),
                _page_row("http://b.example.com/", 1),
            ])
            recorded = database.db.query(
                "SELECT crawl_index, page_count FROM crawls ORDER BY crawl_index"
            )
            assert [tuple(row) for row in recorded] == [(0, 1), (1, 2)]
            assert [database.page_count(index) for index in (0, 1)] == [1, 2]

    def test_a_single_crawl_batch_issues_one_update(self, monkeypatch):
        with WebLabDatabase() as database:
            database.register_crawl(3, 3.0)
            executed = []
            real_execute = database.db.execute

            def recording(sql, params=()):
                executed.append((sql.split()[0], tuple(params)))
                real_execute(sql, params)

            monkeypatch.setattr(database.db, "execute", recording)
            database.load_page_batch(
                [_page_row(f"http://s{i}.example.com/", 3) for i in range(4)]
            )
            assert executed == [("UPDATE", (4, 3))]
            assert database.db.query_value(
                "SELECT page_count FROM crawls WHERE crawl_index = 3"
            ) == 4


class TestRetroBrowser:
    @pytest.fixture()
    def retro(self, built_weblab):
        weblab, _, _ = built_weblab
        return RetroBrowser(weblab.database, weblab.pagestore)

    def find_evolving_url(self, weblab):
        return weblab.database.db.query_value(
            "SELECT url FROM pages GROUP BY url "
            "HAVING count(DISTINCT content_hash) >= 2 LIMIT 1"
        )

    def test_browse_as_of_date(self, built_weblab, retro):
        weblab, _, _ = built_weblab
        url = self.find_evolving_url(weblab)
        history = retro.history(url)
        early = retro.get(url, history[0])
        late = retro.get(url, history[-1])
        assert early.fetched_at <= late.fetched_at
        assert len({retro.get(url, when).content for when in history}) >= 2  # it really changed

    def test_time_pinned_content_is_stable(self, retro, built_weblab):
        weblab, _, _ = built_weblab
        url = self.find_evolving_url(weblab)
        pin = retro.history(url)[0]
        assert retro.get(url, pin).content == retro.get(url, pin).content

    def test_never_captured_raises(self, retro):
        with pytest.raises(WebLabError, match="no capture"):
            retro.get("http://nosuch.example/", 1e12)

    def test_navigation_stays_pinned(self, built_weblab, retro):
        weblab, _, _ = built_weblab
        row = weblab.database.db.query_one(
            "SELECT src_url, crawl_index FROM links LIMIT 1"
        )
        crawl_time = weblab.database.db.query_value(
            "SELECT crawl_time FROM crawls WHERE crawl_index = ?",
            (row["crawl_index"],),
        )
        as_of = crawl_time + 1.0
        page = retro.get(row["src_url"], as_of)
        if page.outlinks:  # the link table matches this capture's crawl
            target = retro.navigate(row["src_url"], as_of, 0)
            assert target.as_of == as_of
            assert target.fetched_at <= as_of

    def test_navigate_bad_index(self, built_weblab, retro):
        weblab, _, _ = built_weblab
        url = weblab.database.db.query_value("SELECT url FROM pages LIMIT 1")
        as_of = retro.history(url)[-1]
        with pytest.raises(WebLabError, match="outlinks"):
            retro.navigate(url, as_of, 9999)


class TestSubsets:
    def test_extract_by_tld(self, built_weblab):
        weblab, _, _ = built_weblab
        count = extract_subset(weblab.database, "edu_only", SubsetCriteria(tlds=("edu",)))
        assert count > 0
        assert count == weblab.database.db.count("pages", "tld = ?", ("edu",))
        assert "edu_only" in list_subsets(weblab.database)

    def test_extract_time_slice(self, built_weblab):
        weblab, _, _ = built_weblab
        crawl_indexes = weblab.database.crawl_indexes()
        count = extract_subset(
            weblab.database,
            "slice_two",
            SubsetCriteria(crawl_indexes=(crawl_indexes[0], crawl_indexes[1])),
        )
        expected = weblab.database.page_count(crawl_indexes[0]) + weblab.database.page_count(
            crawl_indexes[1]
        )
        assert count == expected

    def test_extract_with_quotes_in_value_is_safe(self, built_weblab):
        weblab, _, _ = built_weblab
        count = extract_subset(
            weblab.database, "weird", SubsetCriteria(domains=("o'reilly.com",))
        )
        assert count == 0  # no such domain, but no SQL error either

    def test_bad_view_name_rejected(self, built_weblab):
        weblab, _, _ = built_weblab
        with pytest.raises(WebLabError):
            extract_subset(weblab.database, "bad; DROP TABLE pages", SubsetCriteria())
        with pytest.raises(WebLabError):
            extract_subset(weblab.database, "1leading", SubsetCriteria())

    def test_stratified_sample_by_domain(self, built_weblab):
        weblab, _, _ = built_weblab
        sample = stratified_sample(weblab.database, "domain", per_stratum=3, seed=1)
        assert set(sample) == set(weblab.database.domains())
        assert all(len(urls) <= 3 for urls in sample.values())
        assert all(urls for urls in sample.values())

    def test_stratified_sample_deterministic(self, built_weblab):
        weblab, _, _ = built_weblab
        a = stratified_sample(weblab.database, "tld", per_stratum=5, seed=9)
        b = stratified_sample(weblab.database, "tld", per_stratum=5, seed=9)
        assert a == b

    def test_stratified_sample_respects_criteria(self, built_weblab):
        weblab, _, _ = built_weblab
        crawl = weblab.database.crawl_indexes()[0]
        sample = stratified_sample(
            weblab.database,
            "domain",
            per_stratum=100,
            criteria=SubsetCriteria(crawl_indexes=(crawl,)),
        )
        total = sum(len(urls) for urls in sample.values())
        assert total == weblab.database.page_count(crawl)

    def test_stratified_sample_validation(self, built_weblab):
        weblab, _, _ = built_weblab
        with pytest.raises(WebLabError):
            stratified_sample(weblab.database, "content_hash", 3)
        with pytest.raises(WebLabError):
            stratified_sample(weblab.database, "domain", 0)
