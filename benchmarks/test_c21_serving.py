"""C21 — trace-driven serving: the read path under Zipfian load.

The access surfaces all three case studies converge on — WebLab's retro
browser, the EventStore's pinned reads, the archive's recalls — are
exercised here under the workload engine's seeded traffic: Zipfian key
popularity, a burst storm, multi-tenant arrival streams.  What serving
costs in seconds is perfbench's ``serve-hot`` and ``serve-scan``
workloads (``serve.*``, ``readcache.hit_ratio``).  The claims this
harness checks:

* the EventStore's grade/file caching serves repeat pinned reads without
  re-resolving;
* recall-queue coalescing + batching beat naive per-request HSM reads;
* admission control sheds storm overload with exact accounting
  (served + rejected == total, never silent drops).
"""

import pytest

from repro.core.readcache import ReadCache
from repro.core.telemetry import Telemetry
from repro.core.units import DataSize, Duration, Rate
from repro.core.workload import (
    AdmissionController,
    BurstStorm,
    OpSpec,
    TenantSpec,
    TraceReplayer,
    WorkloadSpec,
    generate_trace,
)
from repro.eventstore.provenance import stamp_step
from repro.eventstore.store import EventStore
from repro.storage.hsm import HierarchicalStore
from repro.storage.media import MediaType
from repro.storage.recall import RecallQueue
from repro.storage.tape import RoboticTapeLibrary
from repro.weblab.services import WebLabServices, build_weblab
from repro.weblab.synthweb import SyntheticWebConfig

from tests.eventstore.conftest import make_events, make_run

SEED = 21
CACHE_CAPACITY = 4096


@pytest.fixture(scope="module")
def lab(tmp_path_factory):
    root = tmp_path_factory.mktemp("weblab-c21")
    weblab, _, _ = build_weblab(
        root, SyntheticWebConfig(seed=SEED), n_crawls=4
    )
    yield weblab
    weblab.close()


def serving_universe(weblab):
    """(urls, navigable src urls, global as_of) for trace generation."""
    urls = [
        row["url"]
        for row in weblab.database.db.query(
            "SELECT DISTINCT url FROM pages ORDER BY url"
        )
    ]
    navigable = [
        row["src_url"]
        for row in weblab.database.db.query(
            "SELECT DISTINCT l.src_url FROM links l "
            "JOIN pages p ON p.url = l.src_url AND p.crawl_index = l.crawl_index "
            "JOIN pages d ON d.url = l.dst_url AND d.crawl_index = l.crawl_index "
            "ORDER BY l.src_url"
        )
    ]
    as_of = float(
        weblab.database.db.query_value("SELECT max(fetched_at) FROM pages")
    ) + 1.0
    return urls, navigable, as_of


def browse_spec(urls, navigable, duration_s=40.0, rate=30.0, seed=SEED):
    """Zipfian browse-heavy mix with a mid-trace burst storm."""
    return WorkloadSpec(
        name="c21-serving",
        seed=seed,
        duration_s=duration_s,
        tenants=(
            TenantSpec(
                name="researchers",
                rate_per_s=rate,
                ops=(
                    OpSpec(op="browse", weight=6.0, keys=tuple(urls), zipf_s=1.3),
                    OpSpec(
                        op="navigate", weight=2.0, keys=tuple(navigable), zipf_s=1.3
                    ),
                    OpSpec(op="history", weight=1.0, keys=tuple(urls[:25]), zipf_s=1.0),
                ),
                storms=(
                    BurstStorm(
                        start_s=duration_s * 0.5,
                        end_s=duration_s * 0.7,
                        multiplier=4.0,
                    ),
                ),
            ),
        ),
    )


def handlers_for(services, as_of):
    return {
        "browse": lambda request: services.browse(request.key, as_of),
        "navigate": lambda request: services.navigate(request.key, as_of, 0),
        "history": lambda request: services.capture_history(request.key),
    }


class TestC21EventStoreReadPath:
    def test_pinned_reads_ride_the_cache(self, tmp_path, report_rows):
        with EventStore(
            tmp_path / "es", scale="personal", cache=ReadCache(capacity=512)
        ) as store:
            for number in range(1, 9):
                events = make_events(run_number=number, count=4)
                run = make_run(number=number, events=events)
                store.inject(
                    run, events, "Recon_v1", "recon",
                    stamp_step("PassRecon", "Recon_v1", {"run": number}),
                )
            store.assign_grade("physics", 10.0, {"runs:1-8": "Recon_v1"})

            baseline = [
                len(list(store.events_for("physics", 15.0, "recon")))
                for _ in range(5)
            ]
            stats = store.cache.stats
            assert baseline == [32] * 5
            # 5 resolutions: 1 miss + 4 hits on grade:, same shape on file:.
            assert stats.hits >= 4 * (1 + 8)
            report_rows(
                "C21: EventStore pinned-read caching",
                [
                    {
                        "pinned reads": 5,
                        "events per read": 32,
                        "cache hits": stats.hits,
                        "negative hits": stats.negative_hits,
                        "misses": stats.misses,
                    }
                ],
            )


def archive_tape(mount_seconds=120):
    return MediaType(
        name="bench tape",
        capacity=DataSize.gigabytes(40),
        read_rate=Rate.megabytes_per_second(120),
        write_rate=Rate.megabytes_per_second(120),
        mount_latency=Duration.from_seconds(mount_seconds),
        unit_cost=50.0,
    )


class TestC21RecallQueue:
    def build_archive(self, n_files=24):
        library = RoboticTapeLibrary("c21", archive_tape())
        hsm = HierarchicalStore(library, cache_capacity=DataSize.gigabytes(8))
        names = [f"obs{i:03d}.arc" for i in range(n_files)]
        for name in names:
            hsm.store(name, DataSize.gigabytes(2))
        return hsm, names

    def recall_trace(self, names, duration_s=60.0):
        spec = WorkloadSpec(
            name="c21-recall",
            seed=SEED,
            duration_s=duration_s,
            tenants=(
                TenantSpec(
                    name="archive-readers",
                    rate_per_s=2.0,
                    ops=(
                        OpSpec(op="recall", weight=1.0, keys=tuple(names), zipf_s=1.2),
                    ),
                ),
            ),
        )
        return generate_trace(spec)

    def test_coalesced_batched_recall_beats_naive(self, report_rows):
        # Naive: every request is an individual HSM read.
        hsm_naive, names = self.build_archive()
        trace = self.recall_trace(names)
        naive_elapsed = Duration.zero()
        for request in trace:
            _, elapsed = hsm_naive.read(request.key)
            naive_elapsed += elapsed

        # Queued: coalesce within 10-simulated-second windows, drain batched.
        hsm_queued, _ = self.build_archive()
        queue = RecallQueue(hsm_queued)
        queued_elapsed = Duration.zero()
        window_end = 10.0
        drains = coalesced = 0
        for request in trace:
            while request.arrival_s >= window_end:
                report = queue.drain()
                queued_elapsed += report.elapsed
                coalesced += report.coalesced
                drains += 1
                window_end += 10.0
            queue.request(request.key)
        final = queue.drain()
        queued_elapsed += final.elapsed
        coalesced += final.coalesced
        drains += 1

        report_rows(
            "C21: archive recall, naive vs coalesced+batched",
            [
                {
                    "requests": len(trace),
                    "strategy": "naive per-request",
                    "tape seconds": f"{naive_elapsed.seconds:.0f}",
                    "drains": "-",
                    "coalesced": 0,
                },
                {
                    "requests": len(trace),
                    "strategy": "queued (10 s windows)",
                    "tape seconds": f"{queued_elapsed.seconds:.0f}",
                    "drains": drains,
                    "coalesced": coalesced,
                },
            ],
        )
        assert len(trace) > 0
        assert coalesced > 0, "Zipfian recall traffic must coalesce"
        assert queued_elapsed.seconds < naive_elapsed.seconds


class TestC21AdmissionControl:
    def test_storm_shedding_accounts_exactly(self, lab, report_rows):
        urls, navigable, as_of = serving_universe(lab)
        trace = generate_trace(
            browse_spec(urls, navigable, duration_s=30.0, rate=40.0)
        )
        bus = Telemetry()
        services = WebLabServices(
            lab, telemetry=Telemetry(), cache=ReadCache(capacity=CACHE_CAPACITY)
        )
        valve = AdmissionController(rate_per_s=25.0, burst=20.0)
        report = TraceReplayer(
            handlers_for(services, as_of), telemetry=bus, admission=valve
        ).replay(trace)

        total = len(trace)
        assert report.served + report.rejected + report.failed == total
        assert report.failed == 0
        assert report.rejected > 0, "the storm must overflow the bucket"
        assert valve.admitted == report.served
        assert valve.rejected == report.rejected
        assert bus.registry.value("workload.requests") == total
        assert bus.registry.value("workload.served") == report.served
        assert bus.registry.value("workload.rejected") == report.rejected
        rejected_events = sum(
            1 for event in bus.events() if event.kind == "serve.rejected"
        )
        assert rejected_events == report.rejected
        report_rows(
            "C21: admission-control backpressure",
            [
                {
                    "offered": total,
                    "served": report.served,
                    "rejected": report.rejected,
                    "rejected %": f"{100.0 * report.rejected / total:.1f}",
                    "accounting": "served + rejected == offered",
                }
            ],
        )
