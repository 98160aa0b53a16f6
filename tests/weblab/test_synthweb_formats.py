"""Tests for the synthetic web and the ARC/DAT file formats."""

import gzip

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import WebLabError
from repro.weblab.arcformat import ArcRecord, pack_crawl, read_arc, write_arc
from repro.weblab.datformat import (
    DatRecord,
    pack_crawl_metadata,
    read_dat,
    write_dat,
)
from repro.weblab.synthweb import BurstSpec, SyntheticWeb, SyntheticWebConfig


@pytest.fixture(scope="module")
def crawls():
    return SyntheticWeb(SyntheticWebConfig(seed=7)).generate_crawls(4)


class TestSyntheticWeb:
    def test_crawls_are_bimonthly(self, crawls):
        gaps = [
            crawls[i + 1].crawl_time - crawls[i].crawl_time
            for i in range(len(crawls) - 1)
        ]
        assert all(gap == pytest.approx(61 * 86400) for gap in gaps)

    def test_web_grows(self, crawls):
        counts = [crawl.page_count for crawl in crawls]
        assert counts[-1] > counts[0]

    def test_pages_evolve(self, crawls):
        first_urls = crawls[0].urls()
        last_urls = crawls[-1].urls()
        assert last_urls - first_urls, "new pages appear"
        assert first_urls - last_urls, "some pages die"

    def test_snapshot_pages_stamped_at_crawl_time(self, crawls):
        for crawl in crawls:
            assert all(page.fetched_at == crawl.crawl_time for page in crawl.pages)

    def test_links_point_at_real_pages(self, crawls):
        all_urls = set()
        for crawl in crawls:
            all_urls |= crawl.urls()
        for page in crawls[-1].pages:
            for target in page.outlinks:
                assert target in all_urls

    def test_preferential_attachment_skews_in_degree(self):
        web = SyntheticWeb(SyntheticWebConfig(seed=1, initial_pages=150))
        crawl = web.generate_crawls(1)[0]
        in_degree = {}
        for page in crawl.pages:
            for target in page.outlinks:
                in_degree[target] = in_degree.get(target, 0) + 1
        degrees = sorted(in_degree.values(), reverse=True)
        # A rich-get-richer web: the top page has several times the median.
        assert degrees[0] >= 4 * max(1, degrees[len(degrees) // 2])

    def test_burst_topic_dominates_window(self):
        config = SyntheticWebConfig(
            seed=2,
            bursts=(BurstSpec(topic="sports", start_crawl=1, end_crawl=2, intensity=8.0),),
        )
        web = SyntheticWeb(config)
        crawls = web.generate_crawls(3)
        new_in_burst = crawls[1].urls() - crawls[0].urls()
        topics = [web._page_topics[url] for url in new_in_burst]
        assert topics.count("sports") > len(topics) / 2

    def test_validation(self):
        with pytest.raises(WebLabError):
            SyntheticWeb(SyntheticWebConfig(n_domains=0))
        with pytest.raises(WebLabError):
            SyntheticWeb(SyntheticWebConfig()).generate_crawls(0)


class TestArcFormat:
    def test_round_trip(self, tmp_path, crawls):
        pages = crawls[0].pages[:10]
        records = [ArcRecord.from_page(page) for page in pages]
        path = tmp_path / "test.arc.gz"
        size = write_arc(path, records)
        assert size.bytes == path.stat().st_size
        loaded = list(read_arc(path))
        assert len(loaded) == 10
        for original, read in zip(records, loaded):
            assert read.url == original.url
            assert read.content == original.content
            assert read.ip == original.ip

    def test_file_is_real_gzip(self, tmp_path, crawls):
        path = tmp_path / "test.arc.gz"
        write_arc(path, [ArcRecord.from_page(crawls[0].pages[0])])
        with gzip.open(path, "rb") as stream:
            assert stream.readline().startswith(b"filedesc://")

    def test_bad_version_block(self, tmp_path):
        path = tmp_path / "bad.arc.gz"
        with gzip.open(path, "wb") as stream:
            stream.write(b"nonsense\n")
        with pytest.raises(WebLabError, match="version"):
            list(read_arc(path))

    def test_truncated_record(self, tmp_path, crawls):
        record = ArcRecord.from_page(crawls[0].pages[0])
        path = tmp_path / "trunc.arc.gz"
        # Hand-write a record lying about its length.
        with gzip.open(path, "wb") as stream:
            stream.write(b"filedesc://x 0.0.0.0 19960101000000 text/plain 3\n")
            stream.write(b"1 0\n\n")
            header = f"{record.url} 1.2.3.4 19960101000000 text/html 99999\n"
            stream.write(header.encode())
            stream.write(b"short")
        with pytest.raises(WebLabError, match="truncated"):
            list(read_arc(path))

    def test_pack_crawl_splits_files(self, tmp_path, crawls):
        pages = crawls[-1].pages
        paths = pack_crawl(pages, tmp_path, "crawl", target_file_bytes=20_000)
        assert len(paths) > 1
        total = sum(len(list(read_arc(path))) for path in paths)
        assert total == len(pages)

    def test_empty_crawl_packs_nothing(self, tmp_path):
        assert pack_crawl([], tmp_path, "empty") == []


class TestDatFormat:
    def test_round_trip(self, tmp_path, crawls):
        records = [DatRecord.from_page(page) for page in crawls[0].pages[:8]]
        path = tmp_path / "test.dat.gz"
        write_dat(path, records)
        loaded = list(read_dat(path))
        assert loaded == records

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.dat.gz"
        with gzip.open(path, "wt", encoding="ascii") as stream:
            stream.write("X what is this\n\n")
        with pytest.raises(WebLabError, match="unknown DAT line"):
            list(read_dat(path))

    def test_link_before_page_rejected(self, tmp_path):
        path = tmp_path / "bad.dat.gz"
        with gzip.open(path, "wt", encoding="ascii") as stream:
            stream.write("L http://x/\n\n")
        with pytest.raises(WebLabError, match="link before page"):
            list(read_dat(path))

    def test_pack_metadata_pairs_arc_files(self, tmp_path, crawls):
        pages = crawls[-1].pages
        arc_paths = pack_crawl(pages, tmp_path, "c", target_file_bytes=20_000)
        dat_paths = pack_crawl_metadata(pages, arc_paths, tmp_path, "c")
        assert len(dat_paths) == len(arc_paths)
        total_links = sum(
            len(record.outlinks) for path in dat_paths for record in read_dat(path)
        )
        assert total_links == sum(len(page.outlinks) for page in pages)


@settings(max_examples=20, deadline=None)
@given(
    contents=st.lists(
        st.binary(min_size=0, max_size=500).filter(lambda b: True), min_size=1, max_size=8
    )
)
def test_arc_content_bytes_survive_round_trip(tmp_path_factory, contents):
    """Arbitrary page bytes survive ARC write/read exactly."""
    tmp_path = tmp_path_factory.mktemp("arc")
    records = [
        ArcRecord(
            url=f"http://h.com/p{index}",
            ip="10.0.0.1",
            archive_date="19960101000000",
            content_type="application/octet-stream",
            content=content,
        )
        for index, content in enumerate(contents)
    ]
    path = tmp_path / "prop.arc.gz"
    write_arc(path, records)
    loaded = list(read_arc(path))
    assert [record.content for record in loaded] == list(contents)
