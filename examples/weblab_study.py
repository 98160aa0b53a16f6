"""A social-science research session on the WebLab (paper Section 4).

Builds a WebLab from scratch — synthetic evolving web, real gzip ARC/DAT
files, the preload subsystem, the metadata database and page store — then
runs the studies the paper says researchers want: retro browsing across
time slices, subset extraction as database views, stratified sampling,
web-graph statistics (with the single-machine vs cluster comparison), and
burst detection over the weblog topic's rise.

Run:  python examples/weblab_study.py
"""

import tempfile
from pathlib import Path

from repro.weblab.services import build_weblab
from repro.weblab.subsets import SubsetCriteria
from repro.weblab.synthweb import BurstSpec, SyntheticWebConfig


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        print("Synthesizing 8 bimonthly crawls, packing ARC/DAT, preloading ...\n")
        config = SyntheticWebConfig(
            seed=12,
            bursts=(BurstSpec(topic="weblog", start_crawl=3, end_crawl=5,
                              intensity=6.0),),
        )
        weblab, build, _ = build_weblab(Path(workdir), config, n_crawls=8)
        services = weblab.services

        print("Ingestion report:")
        print(f"  crawls            : {build.crawls}")
        print(f"  ARC/DAT files     : {build.arc_files}/{build.dat_files} "
              f"({build.compressed_volume} compressed)")
        print(f"  transfer (100 Mb/s Internet2): {build.transfer_time}")
        print(f"  pages / links     : {build.pages_loaded} / {build.links_loaded}")
        print(f"  preload throughput: "
              f"{build.preload.throughput.mb_per_second:.2f} MB/s "
              f"(~{build.preload.projected_daily.gb:.0f} GB/day)")
        print()

        # Retro browsing: the Web as it was.
        url = weblab.database.db.query_value(
            "SELECT url FROM pages GROUP BY url "
            "HAVING count(DISTINCT content_hash) >= 2 LIMIT 1"
        )
        history = services.capture_history(url)
        early = services.browse(url, history[0])
        late = services.browse(url, history[-1])
        print(f"Retro browser: {url}")
        print(f"  captured {len(history)} times over "
              f"{(history[-1] - history[0]) / 86400:.0f} days")
        print(f"  first capture starts : {early.text[:60]!r}...")
        print(f"  latest capture starts: {late.text[:60]!r}...")
        print()

        # Subsets as views + stratified sampling.
        edu = services.extract_subset("edu_pages", SubsetCriteria(tlds=("edu",)))
        recent = services.extract_subset(
            "recent_slice",
            SubsetCriteria(crawl_indexes=tuple(weblab.database.crawl_indexes()[-2:])),
        )
        sample = services.stratified_sample("domain", per_stratum=2)
        print("Subset extraction (stored as database views):")
        print(f"  edu_pages    : {edu} rows")
        print(f"  recent_slice : {recent} rows")
        print(f"  views        : {services.subsets()}")
        print(f"  stratified sample: {len(sample)} domains x <=2 pages")
        print()

        # Web-graph analysis: the single-large-machine argument.
        last_crawl = weblab.database.crawl_indexes()[-1]
        stats = services.graph_stats(last_crawl)
        print(f"Web graph of crawl {last_crawl}:")
        print(f"  {stats.nodes} pages, {stats.edges} links, "
              f"largest component {stats.largest_component_fraction * 100:.0f} %")
        print(f"  top page by PageRank: {stats.top_pages[0][0]}")
        comparison = services.locality_comparison(last_crawl, n_workers=16)
        print(f"  PageRank on one machine : {comparison.single_machine}")
        print(f"  same job on a 16-node cluster: {comparison.cluster} "
              f"({comparison.slowdown:,.0f}x slower, "
              f"{comparison.remote_fraction * 100:.0f} % cut edges)")
        print()

        # Full-text search over a subset.
        index = services.build_text_index(last_crawl)
        hits = index.search("pulsar telescope", limit=3)
        print(f"Full-text index over crawl {last_crawl} "
              f"({len(index)} documents, {index.vocabulary_size} terms):")
        for hit in hits:
            print(f"  {hit.score:.3f}  {hit.url}")
        print()

        # Burst detection: the weblog topic's rise.
        bursts = services.detect_bursts(["blog", "post", "pulsar"],
                                        scaling=1.5, min_weight=12.0)
        print("Burst detection (weblog burst injected at crawls 3-5):")
        for term in ("blog", "post", "pulsar"):
            intervals = bursts.get(term, [])
            rendered = ", ".join(f"crawls {i.start}-{i.end} (weight {i.weight:.0f})"
                                 for i in intervals) or "quiet"
            print(f"  {term:8s}: {rendered}")

        weblab.close()


if __name__ == "__main__":
    main()
