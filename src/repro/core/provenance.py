"""Provenance tracking.

The paper's CLEO section describes the scheme we implement here verbatim:

    "we collect, as strings, all the software module names, their
    parameters, plus all the input file information and make an MD5 hash of
    the strings. [...] We can detect the majority of usage discrepancies by
    comparing the hashes. In the event of a discrepancy, the physicists can
    view the strings to see what has changed."

Two layers are provided:

* :class:`ProvenanceStamp` — the compact, file-embeddable summary (version
  strings accumulated per processing step plus an MD5 digest over all of
  them), exactly the scheme CLEO retrofitted at the data-format level.
* :class:`ProvenanceStore` — a lineage graph of
  :class:`ProvenanceRecord` objects, the "metadata DB" alternative the paper
  says full ASU-granularity tracking would require.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import ProvenanceError

@dataclass(frozen=True)
class ProcessingStep:
    """One software module invocation in a provenance chain."""

    module: str
    version: str
    params: Tuple[Tuple[str, str], ...] = ()
    inputs: Tuple[str, ...] = ()

    @classmethod
    def create(
        cls,
        module: str,
        version: str,
        params: Optional[Mapping[str, object]] = None,
        inputs: Sequence[str] = (),
    ) -> "ProcessingStep":
        frozen_params = tuple(sorted((str(k), str(v)) for k, v in (params or {}).items()))
        return cls(module=module, version=version, params=frozen_params, inputs=tuple(inputs))

    def describe(self) -> str:
        parts = [f"{self.module}@{self.version}"]
        if self.params:
            parts.append("params{" + ",".join(f"{k}={v}" for k, v in self.params) + "}")
        if self.inputs:
            parts.append("inputs[" + ",".join(self.inputs) + "]")
        return " ".join(parts)


@dataclass(frozen=True)
class ProvenanceStamp:
    """File-embeddable provenance summary: step strings plus an MD5 digest.

    Stamps accumulate: each processing step appends its description to the
    history carried forward from its inputs, and the digest covers the whole
    history.  Comparing digests is the cheap discrepancy test the paper
    describes; comparing :attr:`history` strings is the diagnostic fallback.
    """

    history: Tuple[str, ...]
    digest: str

    @classmethod
    def initial(cls, step: ProcessingStep) -> "ProvenanceStamp":
        history = (step.describe(),)
        return cls(history=history, digest=cls._digest_of(history))

    @classmethod
    def empty(cls) -> "ProvenanceStamp":
        return cls(history=(), digest=cls._digest_of(()))

    @staticmethod
    def _digest_of(history: Sequence[str]) -> str:
        md5 = hashlib.md5()
        for line in history:
            md5.update(line.encode("utf-8"))
            md5.update(b"\n")
        return md5.hexdigest()

    def extend(self, step: ProcessingStep) -> "ProvenanceStamp":
        history = self.history + (step.describe(),)
        return ProvenanceStamp(history=history, digest=self._digest_of(history))

    @classmethod
    def merged(cls, stamps: Sequence["ProvenanceStamp"], step: ProcessingStep) -> "ProvenanceStamp":
        """Combine several input stamps through one processing step."""
        history: List[str] = []
        for stamp in stamps:
            history.extend(stamp.history)
        history.append(step.describe())
        frozen = tuple(history)
        return cls(history=frozen, digest=cls._digest_of(frozen))

    def matches(self, other: "ProvenanceStamp") -> bool:
        """The cheap test: identical digests mean consistent provenance."""
        return self.digest == other.digest

    def diff(self, other: "ProvenanceStamp") -> List[str]:
        """Human-readable explanation of a digest mismatch."""
        lines: List[str] = []
        ours, theirs = list(self.history), list(other.history)
        for index in range(max(len(ours), len(theirs))):
            left = ours[index] if index < len(ours) else "<absent>"
            right = theirs[index] if index < len(theirs) else "<absent>"
            if left != right:
                lines.append(f"step {index}: {left!r} != {right!r}")
        return lines

    @property
    def metadata_bytes(self) -> int:
        """Approximate storage footprint of this stamp (for cost studies)."""
        return sum(len(line.encode("utf-8")) + 1 for line in self.history) + len(self.digest)


@dataclass
class ProvenanceRecord:
    """A node in the lineage graph: one derivation of one artifact."""

    artifact: str
    step: ProcessingStep
    parent_ids: Tuple[str, ...] = ()
    record_id: str = field(kw_only=True)
    stamp: ProvenanceStamp = field(default_factory=ProvenanceStamp.empty)


class ProvenanceStore:
    """In-memory lineage graph.

    This plays the role of the "metadata DB" that fine-grained tracking
    would need.  Records are immutable once added and looked up by record
    id; a record's parents are its ``parent_ids``.

    Record ids are allocated from a per-store counter, so a fresh store
    always numbers its records ``prov-000001``, ``prov-000002``, ... in
    allocation order — which is what lets every run of a flow reproduce the
    same ids (the engine reserves them in topological order, then attaches
    them to records as stages complete).  A store is not thread-safe: one
    thread records into it.
    """

    def __init__(self) -> None:
        self._records: Dict[str, ProvenanceRecord] = {}
        self._counter = itertools.count(1)

    def __len__(self) -> int:
        return len(self._records)

    def reserve_id(self) -> str:
        """Allocate the next record id without creating a record yet.

        Callers that need an id before its record exists (the engine
        reserves one per stage, in topological order, before any stage
        runs) pass it to :meth:`record` later.
        """
        return f"prov-{next(self._counter):06d}"

    def record(
        self,
        artifact: str,
        step: ProcessingStep,
        parents: Sequence[str] = (),
        record_id: Optional[str] = None,
    ) -> ProvenanceRecord:
        """Register a new derivation and return its record.

        The new record's stamp extends the stamps of its parents, so the
        file-level summary and the graph stay consistent by construction.
        ``record_id`` may be a previously :meth:`reserve_id`-d id; if
        omitted, the next id is allocated here.
        """
        if record_id is None:
            record_id = self.reserve_id()
        elif record_id in self._records:
            raise ProvenanceError(f"duplicate provenance record id {record_id!r}")
        parent_records = [self._get(parent_id) for parent_id in parents]
        if parent_records:
            stamp = ProvenanceStamp.merged([p.stamp for p in parent_records], step)
        else:
            stamp = ProvenanceStamp.initial(step)
        rec = ProvenanceRecord(
            artifact=artifact,
            step=step,
            parent_ids=tuple(parents),
            record_id=record_id,
            stamp=stamp,
        )
        self._records[rec.record_id] = rec
        return rec

    def _get(self, record_id: str) -> ProvenanceRecord:
        try:
            return self._records[record_id]
        except KeyError:
            raise ProvenanceError(f"unknown provenance record {record_id!r}") from None

    def get(self, record_id: str) -> ProvenanceRecord:
        return self._get(record_id)

    def digest_of(self, record_id: str) -> str:
        """The record's stamp digest — the content address the paper's
        "compare the hashes" test (and the stage cache) keys on."""
        return self._get(record_id).stamp.digest

    def consistent(self, record_ids: Sequence[str]) -> bool:
        """Check a set of artifacts was produced by identical histories."""
        if not record_ids:
            return True
        first = self._get(record_ids[0]).stamp
        return all(self._get(rid).stamp.matches(first) for rid in record_ids[1:])
