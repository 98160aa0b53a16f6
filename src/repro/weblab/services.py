"""The WebLab service layer and end-to-end build.

"Access to the WebLab is provided via a Web Services interface to a
dedicated Web server.  General services provided include a Retro Browser
[...], a facility to extract subsets of the collection and store them as
database views, and tools for common analyses of subsets, such as
extraction of the Web graph and calculations of graph statistics."

:func:`build_weblab` is the whole ingestion path (Figure-less, but the
paper's Section 4 flow): synthesize crawls → pack real gzip ARC/DAT files
→ ship over the dedicated link → preload into the metadata DB and page
store.  :class:`WebLabServices` is the facade researchers then call.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.readcache import ReadCache
from repro.core.telemetry import Counter, MetricsRegistry, Telemetry
from repro.core.units import DataSize, Duration
from repro.transport.network import INTERNET2_100, NetworkLink
from repro.weblab.arcformat import pack_crawl
from repro.weblab.burst import BurstInterval, bursty_terms
from repro.weblab.cluster import LocalityComparison, compare_locality
from repro.weblab.datformat import pack_crawl_metadata
from repro.weblab.metadb import WebLabDatabase
from repro.weblab.pagestore import PageStore
from repro.weblab.preload import PreloadConfig, PreloadStats, PreloadSubsystem
from repro.weblab.retro import RetroBrowser, RetroPage
from repro.weblab.subsets import (
    SubsetCriteria,
    extract_subset,
    list_subsets,
    stratified_sample,
)
from repro.weblab.synthweb import SyntheticWeb, SyntheticWebConfig
from repro.weblab.textindex import TextIndex, build_index
from repro.weblab.webgraph import GraphStats, compute_stats, load_web_graph


@dataclass
class WebLabBuildReport:
    """What the ingestion run produced and moved."""

    crawls: int
    pages_loaded: int
    links_loaded: int
    arc_files: int
    dat_files: int
    compressed_volume: DataSize
    transfer_time: Duration
    preload: PreloadStats


class WebLab:
    """One WebLab installation: database + page store + services."""

    def __init__(
        self,
        root: Union[str, Path],
        telemetry: Optional[Telemetry] = None,
        cache: Optional[ReadCache] = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.database = WebLabDatabase(self.root / "weblab.db")
        self.pagestore = PageStore(self.root / "pages")
        self.services = WebLabServices(self, telemetry=telemetry, cache=cache)

    def close(self) -> None:
        self.database.close()
        self.pagestore.close()

    def __enter__(self) -> "WebLab":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class WebLabServices:
    """The researcher-facing service facade.

    Every facade call is metered: a per-method ``service.calls.<method>``
    counter in the facade's registry, plus a ``service.call`` event on the
    telemetry bus — the Web-server access log of the simulated lab.

    An optional :class:`ReadCache` accelerates the hot read paths: retro
    browsing/navigation (pointer, outlink, and content tiers inside the
    browser) and subset extraction (keyed on the subset name plus the
    criteria digest).  With ``cache=None`` every call goes to the
    database and page store, exactly as before.
    """

    def __init__(
        self,
        weblab: WebLab,
        telemetry: Optional[Telemetry] = None,
        cache: Optional[ReadCache] = None,
    ):
        self._weblab = weblab
        self.cache = cache
        self._retro = RetroBrowser(weblab.database, weblab.pagestore, cache=cache)
        self.metrics = MetricsRegistry()
        self._calls: Dict[str, Counter] = {}
        self._telemetry = telemetry if telemetry is not None else Telemetry()

    def _record(self, method: str, **attrs: object) -> None:
        # One registry lookup per method name, not per call; a method
        # never called still has no counter (service_stats lists names).
        counter = self._calls.get(method)
        if counter is None:
            counter = self._calls[method] = self.metrics.counter(
                f"service.calls.{method}"
            )
        counter.inc()
        self._telemetry.emit("service.call", method, **attrs)

    @property
    def service_stats(self) -> Dict[str, int]:
        """Per-method call counts, read from the metrics registry."""
        prefix = "service.calls."
        return {
            name[len(prefix):]: int(self.metrics.value(name))
            for name in self.metrics.names()
            if name.startswith(prefix)
        }

    # -- retro browsing ----------------------------------------------------
    def browse(self, url: str, as_of: float) -> RetroPage:
        """Browse the Web as it was at a certain date."""
        self._record("browse", url=url, as_of=as_of)
        return self._retro.get(url, as_of)

    def navigate(self, url: str, as_of: float, link_index: int) -> RetroPage:
        self._record("navigate", url=url, as_of=as_of, link_index=link_index)
        return self._retro.navigate(url, as_of, link_index)

    def capture_history(self, url: str) -> List[float]:
        self._record("capture_history", url=url)
        return self._retro.history(url)

    # -- subsets ---------------------------------------------------------------
    def extract_subset(self, name: str, criteria: SubsetCriteria) -> int:
        """Materialize (or re-serve) a subset view; returns its row count.

        With a cache attached, repeating the same (name, criteria) pair
        skips the view DDL and count query — the view from the first call
        is still in place.  After loading new pages, call
        ``cache.invalidate_prefix("subset:")`` to force re-extraction.
        """
        self._record("extract_subset", subset=name)
        if self.cache is None:
            return extract_subset(self._weblab.database, name, criteria)
        count = self.cache.get_or_load(
            f"subset:{name}:{criteria.cache_token()}",
            lambda: extract_subset(self._weblab.database, name, criteria),
        )
        return int(count)  # type: ignore[arg-type]

    def subsets(self) -> List[str]:
        self._record("subsets")
        return list_subsets(self._weblab.database)

    def stratified_sample(
        self,
        stratum_column: str,
        per_stratum: int,
        criteria: Optional[SubsetCriteria] = None,
        seed: int = 0,
    ) -> Dict[str, List[str]]:
        self._record(
            "stratified_sample", stratum=stratum_column, per_stratum=per_stratum
        )
        return stratified_sample(
            self._weblab.database, stratum_column, per_stratum, criteria, seed
        )

    # -- graph analysis ----------------------------------------------------
    def graph_stats(self, crawl_index: int) -> GraphStats:
        self._record("graph_stats", crawl_index=crawl_index)
        graph = load_web_graph(self._weblab.database, crawl_index)
        return compute_stats(graph)

    def locality_comparison(
        self, crawl_index: int, n_workers: int, workload: str = "pagerank"
    ) -> LocalityComparison:
        self._record(
            "locality_comparison", crawl_index=crawl_index, workload=workload
        )
        graph = load_web_graph(self._weblab.database, crawl_index)
        return compare_locality(graph, n_workers, workload=workload)

    # -- text --------------------------------------------------------------
    def build_text_index(self, crawl_index: int) -> TextIndex:
        """Full-text index over one crawl (a subset, per the paper)."""
        self._record("build_text_index", crawl_index=crawl_index)
        rows = self._weblab.database.db.query(
            "SELECT url, content_hash FROM pages WHERE crawl_index = ?",
            (crawl_index,),
        )
        documents = (
            (row["url"], self._weblab.pagestore.get(row["content_hash"]).decode("utf-8"))
            for row in rows
        )
        return build_index(documents)

    def detect_bursts(
        self, vocabulary: Sequence[str], scaling: float = 1.5, min_weight: float = 3.0
    ) -> Dict[str, List[BurstInterval]]:
        """Burst detection across all crawls' page text."""
        self._record("detect_bursts", terms=len(vocabulary))
        slices: List[List[str]] = []
        for crawl_index in self._weblab.database.crawl_indexes():
            rows = self._weblab.database.db.query(
                "SELECT content_hash FROM pages WHERE crawl_index = ?",
                (crawl_index,),
            )
            slices.append(
                [
                    self._weblab.pagestore.get(row["content_hash"]).decode("utf-8")
                    for row in rows
                ]
            )
        return bursty_terms(slices, vocabulary, scaling=scaling, min_weight=min_weight)


def build_weblab(
    root: Union[str, Path],
    web_config: Optional[SyntheticWebConfig] = None,
    n_crawls: int = 6,
    preload_config: Optional[PreloadConfig] = None,
    link: NetworkLink = INTERNET2_100,
) -> Tuple[WebLab, WebLabBuildReport, SyntheticWeb]:
    """Synthesize, pack, transfer, and preload a whole WebLab.

    Returns (weblab, build report, the synthetic web with its ground truth).
    """
    root = Path(root)
    incoming = root / "incoming"
    incoming.mkdir(parents=True, exist_ok=True)
    web = SyntheticWeb(web_config)
    crawls = web.generate_crawls(n_crawls)

    arc_jobs: List[Tuple[Path, int]] = []
    dat_jobs: List[Tuple[Path, int]] = []
    for crawl in crawls:
        stem = f"crawl{crawl.crawl_index:02d}"
        arc_paths = pack_crawl(crawl.pages, incoming, stem)
        dat_paths = pack_crawl_metadata(crawl.pages, arc_paths, incoming, stem)
        arc_jobs.extend((path, crawl.crawl_index) for path in arc_paths)
        dat_jobs.extend((path, crawl.crawl_index) for path in dat_paths)

    compressed = DataSize.from_bytes(
        float(sum(path.stat().st_size for path, _ in arc_jobs + dat_jobs))
    )
    transfer_time = link.transfer_time(compressed)

    weblab = WebLab(root / "weblab")
    for crawl in crawls:
        weblab.database.register_crawl(crawl.crawl_index, crawl.crawl_time)
    preloader = PreloadSubsystem(weblab.database, weblab.pagestore, preload_config)
    stats = preloader.run(arc_jobs, dat_jobs)

    report = WebLabBuildReport(
        crawls=n_crawls,
        pages_loaded=stats.pages,
        links_loaded=stats.links,
        arc_files=len(arc_jobs),
        dat_files=len(dat_jobs),
        compressed_volume=compressed,
        transfer_time=transfer_time,
        preload=stats,
    )
    return weblab, report, web
