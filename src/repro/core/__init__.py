"""Core dataflow framework: units, datasets, DAGs, execution, provenance,
versioning, and resource/cost models."""
