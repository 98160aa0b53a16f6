"""repro: a full reproduction of "Three Case Studies of Large-Scale Data
Flows" (ICDE 2006 Workshop, Cornell).

Subpackages
-----------
core
    Unifying dataflow framework: unit-safe quantities, dataflow DAGs with an
    accounting executor, provenance stamps and lineage, version/grade/
    snapshot machinery, telemetry, and cost models.
storage
    Storage hierarchy substrate: media models, robotic tape library, disk
    pools, a hierarchical storage manager, and a long-term archive with
    media-generation migration.
transport
    Data movement substrate: network links/routes, physical disk shipment
    ("sneakernet"), integrity manifests, and a transport planner.
db
    Thin backend-independent relational layer over the stdlib sqlite3.
eventstore
    The CLEO EventStore: runs/events/ASUs, a binary event-file format with
    provenance extensions, grades and timestamp snapshots, personal/group/
    collaboration scales, merge-based ingest, and hot/warm/cold partitioning.
cleo
    The CLEO physics pipeline: synthetic collision runs, track
    reconstruction, post-reconstruction, Monte Carlo, and analysis jobs.
arecibo
    The Arecibo ALFA pulsar survey: synthetic 7-beam dynamic spectra,
    dedispersion, Fourier periodicity search with harmonic summing,
    folding, acceleration search, single-pulse search, RFI excision,
    candidate sifting, and cross-pointing meta-analysis.
weblab
    The Cornell WebLab: synthetic evolving web, ARC/DAT formats, the
    preload subsystem, metadata database, retro browser, subset extraction
    and stratified sampling, web-graph analytics, burst detection, and a
    full-text index.
"""

__version__ = "1.0.0"
