"""Dataset abstraction flowing through the pipelines.

A :class:`Dataset` is the unit of exchange between dataflow stages: a named,
sized collection of items carrying a version identifier and a pointer into
the provenance store.  The payload is deliberately opaque to the core — the
Arecibo pipeline puts filterbank blocks in it, CLEO puts event files, WebLab
puts ARC batches — so the engine can do uniform volume and lineage
accounting without knowing any domain detail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional

from repro.core.units import DataSize

@dataclass
class Dataset:
    """A named, sized, versioned bundle of data items.

    Parameters
    ----------
    name:
        Human-readable role of the data (``"raw-spectra"``, ``"candidates"``).
    size:
        Total volume.  Used by the engine for storage and transport
        accounting.
    items:
        Optional payload objects.  The core never inspects them.
    version:
        Version identifier string (see :mod:`repro.core.versioning`).
    provenance_id:
        Id of the provenance record describing how this dataset was made.
    attrs:
        Free-form domain metadata (e.g. number of pointings, run numbers).
    """

    name: str
    size: DataSize
    items: list = field(default_factory=list)
    version: str = "unversioned"
    provenance_id: Optional[str] = None
    attrs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("Dataset name must be non-empty")
        if not isinstance(self.size, DataSize):
            raise TypeError(f"size must be a DataSize, got {type(self.size).__name__}")

    @property
    def item_count(self) -> int:
        return len(self.items)

    def derive(
        self,
        name: str,
        size: DataSize,
        items: Optional[Iterable[Any]] = None,
        version: Optional[str] = None,
        attrs: Optional[Mapping[str, Any]] = None,
    ) -> "Dataset":
        """Create a downstream dataset, inheriting version unless overridden."""
        merged_attrs = dict(self.attrs)
        if attrs:
            merged_attrs.update(attrs)
        return Dataset(
            name=name,
            size=size,
            items=list(items) if items is not None else [],
            version=version if version is not None else self.version,
            attrs=merged_attrs,
        )

    def __repr__(self) -> str:
        return (
            f"Dataset({self.name!r}, {self.size}, items={self.item_count}, "
            f"version={self.version!r})"
        )
