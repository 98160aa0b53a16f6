"""Every ``stats`` property is a snapshot of its component's one book.

One scripted sequence per component.  The expected values were recorded
while the books still lived in per-component metrics registries, so this
file is green on both sides of their removal; only the lane's split of
bad media between ``files_corrupt`` and ``files_missing`` moved, when
damaged media stopped being dropped before the manifest check.  Types
are part of the contract: counts are ``int``, volumes ``float``,
``*_time`` a ``Duration``.

Each script then runs one more operation: the snapshot it took must not
move, and a fresh read must.  A before/after difference of two snapshots
(``PreloadSubsystem.run``, a serving pass over a ``ReadCache``) relies on
that.
"""

import dataclasses
import random

import pytest

from repro.core.readcache import ReadCache
from repro.core.units import DataSize, Duration
from repro.storage.hsm import HierarchicalStore
from repro.storage.tape import RoboticTapeLibrary
from repro.transport.sneakernet import ShipmentSpec, ShippingLane
from repro.weblab.arcformat import pack_crawl
from repro.weblab.datformat import pack_crawl_metadata
from repro.weblab.preload import PreloadSubsystem
from repro.weblab.services import WebLab
from repro.weblab.synthweb import SyntheticWeb, SyntheticWebConfig

GB = DataSize.gigabytes(1)


def books(stats):
    return {field.name: getattr(stats, field.name) for field in dataclasses.fields(stats)}


def snapshot(read, step):
    """``read()``, then one more ``step()``: the copy taken must not follow it."""
    stats = read()
    before = books(stats)
    step()
    assert books(stats) == before
    assert books(read()) != before
    return stats


def hsm(tmp_path):
    store = HierarchicalStore(RoboticTapeLibrary("robot"), cache_capacity=GB * 2)
    for name in "abc":  # the third store evicts "a"
        store.store(name, GB)
    store.read("c")  # cached
    store.read("a")  # recalled from tape, evicts "b"
    return snapshot(lambda: store.stats, lambda: store.read("c")), dict(
        hits=1, misses=1, evictions=2, bytes_recalled=1e9, recall_time=Duration(12.5))


def tape(tmp_path):
    library = RoboticTapeLibrary("robot")
    library.archive("a", GB * 3)
    library.archive("b", GB)
    library.recall("a")
    library.recall("b")  # same cartridge: no second mount
    return snapshot(lambda: library.stats, lambda: library.recall("a")), dict(
        writes=2, reads=2, mounts=1, bytes_written=4e9, bytes_read=4e9,
        busy_time=Duration(190.0))


def lane(tmp_path):
    spec = ShipmentSpec(name="ao-ctc", corruption_prob=0.3, loss_prob=0.1)
    shipping = ShippingLane(spec, rng=random.Random(5))
    shipping.ship(DataSize.terabytes(2))
    shipping.ship(DataSize.terabytes(1))
    stats = snapshot(lambda: shipping.stats, lambda: shipping.ship(DataSize.terabytes(1)))
    return stats, dict(
        shipments=2, attempts=5, media_shipped=11, media_retransmitted=3,
        bytes_shipped=4066666666666.667, files_delivered=8, files_corrupt=2,
        files_missing=1, personnel_time=Duration(20100.0))


def preload(tmp_path):
    pages = SyntheticWeb(SyntheticWebConfig(seed=7, initial_pages=30)).generate_crawls(1)[0].pages
    arcs = pack_crawl(pages, tmp_path / "arc", "crawl0", target_file_bytes=20_000)
    dats = pack_crawl_metadata(pages, arcs, tmp_path / "dat", "crawl0")
    with WebLab(tmp_path / "weblab") as weblab:
        preloader = PreloadSubsystem(weblab.database, weblab.pagestore)
        assert preloader.run([(p, 0) for p in arcs], [(p, 0) for p in dats]) == (
            preloader.lifetime_stats)  # one run: its delta is the lifetime
        stats = snapshot(
            lambda: preloader.lifetime_stats, lambda: preloader.run([(arcs[0], 1)]))
    assert stats.elapsed_s > 0.0  # wall clock: typed below, not pinned
    return stats, dict(
        arc_files=len(arcs), dat_files=len(dats), pages=30,
        links=sum(len(page.outlinks) for page in pages),
        compressed_bytes=float(sum(p.stat().st_size for p in arcs + dats)),
        content_bytes=float(sum(len(page.content.encode("utf-8")) for page in pages)),
        elapsed_s=stats.elapsed_s)


def readcache(tmp_path):
    cache = ReadCache(capacity=2)
    for key in ("a", "a", "b", "b", "c", "gone", "gone", "gone", "gone", "c", "c", "a"):
        cache.get_or_load(key, lambda: None if key == "gone" else key)
    return snapshot(lambda: cache.stats, lambda: cache.get_or_load("a", str)), dict(
        hits=3, misses=7, negative_hits=2, admitted=4, admission_rejected=3,
        evictions=2)


@pytest.mark.parametrize("script", [hsm, tape, lane, preload, readcache])
def test_stats_view_matches_the_recorded_books(script, tmp_path):
    stats, expected = script(tmp_path)
    names = [field.name for field in dataclasses.fields(stats)]
    assert books(stats) == expected
    # Exact types: a count that came back as 3.0 would still compare equal.
    assert [type(getattr(stats, name)) for name in names] == [
        type(expected[name]) for name in names
    ]
