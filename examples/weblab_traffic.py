"""Trace-driven traffic against the WebLab serving layer (ROADMAP item 5).

Builds a small WebLab, generates a seeded multi-tenant trace — Zipfian
key popularity, a mid-trace burst storm — saves and reloads it
(byte-identical), then replays it three ways against the retro-browser
facade: uncached, cold cache, and warm cache.  Finishes with the same
storm pushed through an admission-control valve, showing exact
backpressure accounting (served + rejected == offered, no silent drops).

Run:  python examples/weblab_traffic.py
"""

import tempfile
from pathlib import Path

from repro.core.readcache import ReadCache
from repro.core.telemetry import Telemetry
from repro.core.workload import (
    AdmissionController,
    BurstStorm,
    OpSpec,
    TenantSpec,
    Trace,
    TraceReplayer,
    WorkloadSpec,
    generate_trace,
)
from repro.weblab.services import WebLabServices, build_weblab
from repro.weblab.synthweb import SyntheticWebConfig


def traffic_spec(urls, duration_s=20.0):
    """Two tenants, browse-heavy, with a flash crowd mid-trace."""
    return WorkloadSpec(
        name="weblab-traffic",
        seed=5,
        duration_s=duration_s,
        tenants=(
            TenantSpec(
                name="researchers",
                rate_per_s=12.0,
                ops=(
                    OpSpec(op="browse", weight=4.0, keys=tuple(urls), zipf_s=1.3),
                    OpSpec(op="history", weight=1.0, keys=tuple(urls[:20]), zipf_s=1.0),
                ),
                storms=(
                    BurstStorm(
                        start_s=duration_s * 0.5,
                        end_s=duration_s * 0.75,
                        multiplier=5.0,
                    ),
                ),
            ),
            TenantSpec(
                name="crawler-qa",
                rate_per_s=3.0,
                ops=(
                    OpSpec(op="browse", weight=1.0, keys=tuple(urls[:10]), zipf_s=0.0),
                ),
            ),
        ),
    )


def print_rows(title, rows):
    print(f"\n{title}")
    headers = list(rows[0])
    widths = [
        max(len(str(header)), *(len(str(row[header])) for row in rows))
        for header in headers
    ]
    print("  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("  " + "-" * (sum(widths) + 2 * (len(widths) - 1)))
    for row in rows:
        print("  " + "  ".join(str(row[h]).ljust(w) for h, w in zip(headers, widths)))


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        print("Building a small WebLab (3 crawls) ...")
        weblab, build, _ = build_weblab(
            Path(workdir) / "weblab", SyntheticWebConfig(seed=5), n_crawls=3
        )
        urls = [
            row["url"]
            for row in weblab.database.db.query(
                "SELECT DISTINCT url FROM pages ORDER BY url"
            )
        ]
        as_of = float(
            weblab.database.db.query_value("SELECT max(fetched_at) FROM pages")
        ) + 1.0
        print(f"  {build.pages_loaded} pages over {len(urls)} urls preloaded")

        # -- generate, save, reload: the trace is the experiment's identity.
        trace = generate_trace(traffic_spec(urls))
        trace_path = Path(workdir) / "traffic.jsonl"
        trace.save(trace_path)
        replayed = Trace.load(trace_path)
        assert replayed.digest() == trace.digest()
        print(
            f"\nTrace: {len(trace)} requests over {trace.duration_s:.0f} simulated "
            f"seconds (digest {trace.digest()[:12]}, survives save/load)"
        )

        def handlers(services):
            return {
                "browse": lambda req: services.browse(req.key, as_of),
                "history": lambda req: services.capture_history(req.key),
            }

        # -- uncached vs cold-cache vs warm-cache replays of the same trace.
        plain = WebLabServices(weblab, telemetry=Telemetry())
        uncached = TraceReplayer(handlers(plain), telemetry=Telemetry()).replay(
            replayed
        )
        cached = WebLabServices(
            weblab, telemetry=Telemetry(), cache=ReadCache(capacity=2048)
        )
        cold = TraceReplayer(handlers(cached), telemetry=Telemetry()).replay(replayed)
        warm = TraceReplayer(handlers(cached), telemetry=Telemetry()).replay(replayed)

        rows = []
        for label, report in (
            ("uncached", uncached),
            ("cold cache", cold),
            ("warm cache", warm),
        ):
            for op in replayed.ops():
                rows.append({"cache": label, **report.latency_summary(op).row()})
        print_rows("Latency percentiles per path (same trace, three facades):", rows)
        stats = cached.cache.stats
        print(
            f"\n  read cache: {stats.hits} hits / {stats.misses} misses "
            f"(hit rate {stats.hit_rate:.3f}), "
            f"{stats.admission_rejected} admissions rejected by the frequency filter"
        )

        # -- the same storm through an admission-control valve.
        valve = AdmissionController(rate_per_s=10.0, burst=15.0)
        shed = TraceReplayer(
            handlers(cached), telemetry=Telemetry(), admission=valve
        ).replay(replayed)
        print_rows(
            "Admission control under the burst storm:",
            [
                {
                    "offered": len(replayed),
                    "served": shed.served,
                    "rejected": shed.rejected,
                    "rejected %": f"{100.0 * shed.rejected / len(replayed):.1f}",
                }
            ],
        )
        assert shed.served + shed.rejected + shed.failed == len(replayed)
        print(
            "\n  accounting closes exactly: served + rejected == offered "
            "(every shed request is a serve.rejected event, never a silent drop)"
        )
        weblab.close()


if __name__ == "__main__":
    main()
