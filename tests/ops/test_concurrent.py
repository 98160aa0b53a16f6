"""Concurrent readers over a live, growing telemetry log.

Contract under test: with a writer appending request/lookup event pairs
and N threads serving dashboards through the shared projection cache,
every projection a reader is served is exactly the cold fold of the
complete-line prefix it consumed — never a torn or partially built
projection.  The store's atomic write-then-rename, the fold's
complete-lines-only consumption rule and the walk's size-at-open bound
are what make this hold.

A prefix need not hold whole *pairs*: one ``os.write`` is not atomic for a
concurrent reader of a regular file.  The kernel copies a write page by
page and grows the file's size after each page, so a pair that straddles a
4 KiB boundary can be seen with its request line whole and its lookup line
cut — a complete-line prefix with one request more than lookups.
"""

import json
import os
import threading
import time

from repro.core.cachestore import DiskCacheStore
from repro.core.telemetry import Telemetry
from repro.ops.rollup import build_rollup, scan_log

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
                observed.append(projection)
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
    # Every projection served is the cold fold of the complete lines it consumed.
    whole, cold = log.read_bytes(), {}
    for projection in observed:
        consumed = projection.consumed_bytes
        prefix = whole[:consumed]
        assert prefix.endswith(b"\n") or not prefix
        if consumed not in cold:
            cut = tmp_path / f"prefix-{consumed}.jsonl"
            cut.write_bytes(prefix)
            cold[consumed] = scan_log(cut)
        reference = cold[consumed]
        assert projection.consumed_digest == reference.content_digest
        assert projection.consumed_events == reference.consumed_events
        assert projection.to_dict()["flows"] == reference.to_dict()["flows"]
    # A read after the writer is done sees the whole log.
    final = build_rollup(log, store=store)
    assert final.consumed_events == 2 * WRITER_PAIRS
    # The barrier guarantees every reader served the pre-write log, so
    # readers really did observe the log mid-growth, not just its end.
    assert min(projection.consumed_events for projection in observed) == 0
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
