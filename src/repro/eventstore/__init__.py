"""The CLEO EventStore: event data model, binary file format with provenance
extensions, grade/snapshot metadata, three store scales, merge-based ingest,
and hot/warm/cold partitioning."""
