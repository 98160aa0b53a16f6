"""The Cornell WebLab: synthetic evolving web, ARC/DAT formats, preload
subsystem, metadata database, page store, retro browser, subsets and
stratified sampling, web-graph analytics, burst detection, full-text index,
and the web-services facade."""

from repro.weblab.arcformat import ArcRecord, pack_crawl, read_arc, write_arc
from repro.weblab.burst import (
    BurstInterval,
    bursty_terms,
    detect_bursts,
    term_time_series,
)
from repro.weblab.cluster import (
    MEMORY_ACCESS,
    NETWORK_ROUND_TRIP,
    ClusterCost,
    LocalityComparison,
    PartitionedGraph,
    compare_locality,
    single_machine_time,
)
from repro.weblab.datformat import (
    DatRecord,
    pack_crawl_metadata,
    read_dat,
    write_dat,
)
from repro.weblab.export import ExportBundle, export_subset, read_exported_metadata
from repro.weblab.focused import FocusedSelection, SelectedPage, select_materials
from repro.weblab.metadb import WebLabDatabase, weblab_schema
from repro.weblab.pagestore import PageStore, content_hash
from repro.weblab.preload import PreloadConfig, PreloadStats, PreloadSubsystem
from repro.weblab.retro import RetroBrowser, RetroPage
from repro.weblab.services import (
    WebLab,
    WebLabBuildReport,
    WebLabServices,
    build_weblab,
)
from repro.weblab.subsets import (
    SubsetCriteria,
    drop_subset,
    extract_subset,
    list_subsets,
    stratified_sample,
)
from repro.weblab.synthweb import (
    BurstSpec,
    CrawlSnapshot,
    PageRecord,
    SyntheticWeb,
    SyntheticWebConfig,
)
from repro.weblab.textindex import SearchHit, TextIndex, build_index, tokenize
from repro.weblab.webgraph import (
    GraphStats,
    TraversalCost,
    bfs_with_cost,
    compute_stats,
    load_web_graph,
    pagerank_with_cost,
)

__all__ = [
    "ArcRecord",
    "pack_crawl",
    "read_arc",
    "write_arc",
    "BurstInterval",
    "bursty_terms",
    "detect_bursts",
    "term_time_series",
    "MEMORY_ACCESS",
    "NETWORK_ROUND_TRIP",
    "ClusterCost",
    "LocalityComparison",
    "PartitionedGraph",
    "compare_locality",
    "single_machine_time",
    "DatRecord",
    "pack_crawl_metadata",
    "read_dat",
    "write_dat",
    "ExportBundle",
    "FocusedSelection",
    "SelectedPage",
    "select_materials",
    "export_subset",
    "read_exported_metadata",
    "WebLabDatabase",
    "weblab_schema",
    "PageStore",
    "content_hash",
    "PreloadConfig",
    "PreloadStats",
    "PreloadSubsystem",
    "RetroBrowser",
    "RetroPage",
    "WebLab",
    "WebLabBuildReport",
    "WebLabServices",
    "build_weblab",
    "SubsetCriteria",
    "drop_subset",
    "extract_subset",
    "list_subsets",
    "stratified_sample",
    "BurstSpec",
    "CrawlSnapshot",
    "PageRecord",
    "SyntheticWeb",
    "SyntheticWebConfig",
    "SearchHit",
    "TextIndex",
    "build_index",
    "tokenize",
    "GraphStats",
    "TraversalCost",
    "bfs_with_cost",
    "compute_stats",
    "load_web_graph",
    "pagerank_with_cost",
]
