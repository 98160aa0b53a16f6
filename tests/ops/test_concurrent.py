"""Concurrent readers over a live, growing telemetry log.

Contract under test (the ISSUE's concurrency satellite): with a writer
appending atomic request/lookup event pairs and N threads serving
dashboards through the shared projection cache, every reader observes a
*complete prefix* of the log — counters balance exactly (requests ==
hits + misses, an even event count) — and never a torn or partially
built projection.  The store's atomic write-then-rename and the
fold's complete-lines-only consumption rule are what make this hold.
"""

import json
import os
import threading
import time

from repro.core.cachestore import DiskCacheStore
from repro.core.telemetry import Telemetry
from repro.ops.rollup import build_rollup

WRITER_PAIRS = 200
READERS = 6


def _event_line(event):
    return json.dumps(event.to_dict(), sort_keys=True) + "\n"


def test_readers_never_observe_a_torn_projection(tmp_path):
    log = tmp_path / "telemetry.jsonl"
    log.write_bytes(b"")
    store = DiskCacheStore(tmp_path / "cache")

    bus = Telemetry()
    pairs = []
    with bus.span("weblab-serving"):
        for index in range(WRITER_PAIRS):
            request = bus.emit("workload.request", f"r{index}", tenant="alpha")
            kind = "readcache.hit" if index % 3 else "readcache.miss"
            lookup = bus.emit(kind, f"r{index}")
            pairs.append(_event_line(request) + _event_line(lookup))

    stop = threading.Event()
    started = threading.Barrier(READERS + 1)
    failures = []
    observed = []

    def writer():
        # One os.write per pair: the request and its cache lookup land
        # in the log atomically, so a balanced prefix is always on disk.
        started.wait()  # every reader has already served the empty log
        fd = os.open(log, os.O_WRONLY | os.O_APPEND)
        try:
            for index, pair in enumerate(pairs):
                os.write(fd, pair.encode("utf-8"))
                if index % 10 == 9:
                    time.sleep(0.002)  # let readers catch the log mid-growth
        finally:
            os.close(fd)
            stop.set()

    def reader():
        try:
            first = True
            while True:
                projection = build_rollup(log, store=store)
                serving = projection.flows.get("weblab-serving")
                if serving is not None:
                    totals = serving.totals
                    lookups = totals.cache_hits + totals.cache_misses
                    assert totals.requests == lookups, (
                        f"unbalanced prefix: {totals.requests} requests vs "
                        f"{lookups} lookups"
                    )
                    assert projection.consumed_events == totals.events
                assert projection.consumed_events % 2 == 0
                observed.append(projection.consumed_events)
                if first:
                    first = False
                    started.wait()
                if stop.is_set():
                    break
        except Exception as exc:  # noqa: BLE001 - surfaced to the main thread
            failures.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(READERS)]
    for thread in threads:
        thread.start()
    writer_thread = threading.Thread(target=writer)
    writer_thread.start()
    writer_thread.join()
    for thread in threads:
        thread.join()

    assert not failures, failures[0]
    # A read after the writer is done sees the whole log.
    final = build_rollup(log, store=store)
    assert final.consumed_events == 2 * WRITER_PAIRS
    # The barrier guarantees every reader served the pre-write log, so
    # readers really did observe the log mid-growth, not just its end.
    assert min(observed) == 0
    assert len(observed) >= READERS


def test_concurrent_readers_agree_on_a_static_log(tmp_path):
    log = tmp_path / "telemetry.jsonl"
    bus = Telemetry()
    with bus.span("weblab-serving"):
        for index in range(50):
            bus.emit("workload.request", f"r{index}", tenant="alpha")
            bus.emit("readcache.hit", f"r{index}")
    log.write_text(
        "".join(_event_line(event) for event in bus.events()),
        encoding="utf-8",
    )
    store = DiskCacheStore(tmp_path / "cache")
    results = []
    lock = threading.Lock()

    def read():
        projection = build_rollup(log, store=store)
        with lock:
            results.append(projection.to_dict())

    threads = [threading.Thread(target=read) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(results) == 8
    assert all(result == results[0] for result in results)
