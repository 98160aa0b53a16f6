"""Binary event-file format with provenance extension records.

"Provenance data are stored in the data files using a simple extension to
the standard CLEO data storage system [...] The version strings and hash
are stored in the output stream of each file written, so that every derived
data file carries a summary of its provenance."

Layout (all integers little-endian, unsigned):

========  =======================================================
bytes     meaning
========  =======================================================
8         magic ``b"CLEOESF1"``
4         header length ``H``
H         UTF-8 JSON header: run, version, data kind, created-at
4         provenance line count ``P``
P x       (4-byte length + UTF-8 line) — the accumulated version strings
32        ASCII MD5 digest over the provenance lines
4         event count ``E``
E x       event record:
            4   event number
            2   ASU count ``A``
            A x (2-byte name length + name, 4-byte payload length + payload)
========  =======================================================
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Dict, Iterable, Iterator, List, Optional, Union

from repro.core.errors import EventStoreError
from repro.core.provenance import ProvenanceStamp
from repro.eventstore.model import ASU, Event

MAGIC = b"CLEOESF1"

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_EVENT_HEAD = struct.Struct("<IH")  # event number, ASU count

# Distinct ASU names one read keeps decoded; past it a name decodes per use.
_MAX_INTERNED_NAMES = 1024


def _u16(value: int) -> bytes:
    if not 0 <= value <= 0xFFFF:
        raise EventStoreError(f"u16 overflow: {value}")
    return _U16.pack(value)


def _u32(value: int) -> bytes:
    if not 0 <= value <= 0xFFFFFFFF:
        raise EventStoreError(f"u32 overflow: {value}")
    return _U32.pack(value)


def _truncated(what: str) -> EventStoreError:
    return EventStoreError(f"truncated event file while reading {what}")


def _read_exact(stream: BinaryIO, n: int, what: str) -> bytes:
    data = stream.read(n)
    if len(data) != n:
        raise _truncated(what)
    return data


def _read_u32(stream: BinaryIO, what: str) -> int:
    return _U32.unpack(_read_exact(stream, 4, what))[0]


@dataclass(frozen=True)
class FileHeader:
    """The JSON header of an event file."""

    run_number: int
    version: str
    data_kind: str
    created_at: float

    def to_json(self) -> bytes:
        return json.dumps(
            {
                "run": self.run_number,
                "version": self.version,
                "kind": self.data_kind,
                "created": self.created_at,
            },
            sort_keys=True,
        ).encode("utf-8")

    @classmethod
    def from_json(cls, data: bytes) -> "FileHeader":
        try:
            parsed = json.loads(data.decode("utf-8"))
            return cls(
                run_number=int(parsed["run"]),
                version=str(parsed["version"]),
                data_kind=str(parsed["kind"]),
                created_at=float(parsed["created"]),
            )
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            raise EventStoreError(f"bad event-file header: {exc}") from exc


def write_event_file(
    path: Union[str, Path],
    header: FileHeader,
    events: Iterable[Event],
    stamp: ProvenanceStamp,
) -> int:
    """Serialize events (and their provenance stamp) to ``path``.

    Returns the number of events written.  Events must all belong to the
    header's run.  Every record is validated and framed in memory and the
    file is written in one call, so a refused event leaves nothing under
    ``path``.
    """
    events = list(events)
    for event in events:
        if event.run_number != header.run_number:
            raise EventStoreError(
                f"event from run {event.run_number} in file for run "
                f"{header.run_number}"
            )
    header_bytes = header.to_json()
    chunks = [MAGIC, _u32(len(header_bytes)), header_bytes, _u32(len(stamp.history))]
    for line in stamp.history:
        encoded = line.encode("utf-8")
        chunks += (_u32(len(encoded)), encoded)
    digest = stamp.digest.encode("ascii")
    if len(digest) != 32:
        raise EventStoreError("provenance digest must be a 32-char MD5 hex string")
    chunks += (digest, _u32(len(events)))
    # A run repeats a handful of ASU names: frame each (length + name) once.
    name_prefixes: Dict[str, bytes] = {}
    append, u32 = chunks.append, _U32.pack
    for event in events:
        asus = event.asus
        append(_u32(event.event_number) + _u16(len(asus)))
        for name in sorted(asus):
            prefix = name_prefixes.get(name)
            if prefix is None:
                encoded = name.encode("utf-8")
                prefix = name_prefixes[name] = _u16(len(encoded)) + encoded
            payload = asus[name].payload
            if len(payload) > 0xFFFFFFFF:
                raise EventStoreError(f"u32 overflow: {len(payload)}")
            append(prefix)
            append(u32(len(payload)))
            append(payload)
    Path(path).write_bytes(b"".join(chunks))
    return len(events)


@contextmanager
def _mapped(stream: BinaryIO) -> Iterator[Union[bytes, mmap.mmap]]:
    """The file's bytes as one buffer; the OS pages in what parsing touches."""
    if os.fstat(stream.fileno()).st_size == 0:
        yield b""  # an empty file cannot be mapped
        return
    with mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ) as data:
        yield data


@dataclass
class EventFile:
    """Parsed header + provenance of an event file, with lazy event access."""

    path: Path
    header: FileHeader
    stamp: ProvenanceStamp
    event_count: int
    _events_offset: int

    def events(self, asu_names: Optional[Iterable[str]] = None) -> Iterator[Event]:
        """Stream events; optionally project to a subset of ASUs.

        Projection still steps over unwanted payloads (this format is
        row-major); the hot/warm/cold partitioning in
        :mod:`repro.eventstore.partition` exists precisely because that
        is expensive.
        """
        wanted = set(asu_names) if asu_names is not None else None
        run_number = self.header.run_number
        names: Dict[bytes, str] = {}  # decoded once per distinct name, bounded
        event_head, u16, u32 = _EVENT_HEAD.unpack_from, _U16.unpack_from, _U32.unpack_from
        with self.path.open("rb") as stream, _mapped(stream) as data:
            offset = self._events_offset
            for _ in range(self.event_count):
                try:
                    event_number, asu_count = event_head(data, offset)
                except struct.error:
                    cut = "event number" if len(data) - offset < 4 else "ASU count"
                    raise _truncated(cut) from None
                offset += _EVENT_HEAD.size
                asus = {}
                for _ in range(asu_count):
                    try:
                        (name_length,) = u16(data, offset)
                    except struct.error:
                        raise _truncated("ASU name length") from None
                    name_end = offset + 2 + name_length
                    raw_name = data[offset + 2 : name_end]
                    if len(raw_name) != name_length:
                        raise _truncated("ASU name")
                    name = names.get(raw_name)
                    if name is None:
                        name = raw_name.decode("utf-8")
                        if len(names) < _MAX_INTERNED_NAMES:
                            names[raw_name] = name
                    try:
                        (payload_length,) = u32(data, name_end)
                    except struct.error:
                        raise _truncated("payload length") from None
                    offset = name_end + 4
                    # An unwanted payload is skipped unread, as a seek would.
                    if wanted is None or name in wanted:
                        payload = data[offset : offset + payload_length]
                        if len(payload) != payload_length:
                            raise _truncated("payload")
                        asus[name] = ASU(name=name, payload=payload)
                    offset += payload_length
                yield Event(run_number=run_number, event_number=event_number, asus=asus)

    def read_all(self) -> List[Event]:
        return list(self.events())


def open_event_file(path: Union[str, Path]) -> EventFile:
    """Parse the header and provenance block; events stay on disk."""
    path = Path(path)
    with path.open("rb") as stream:
        magic = stream.read(len(MAGIC))
        if magic != MAGIC:
            raise EventStoreError(f"{path} is not an event file (bad magic)")
        header_length = _read_u32(stream, "header length")
        header = FileHeader.from_json(_read_exact(stream, header_length, "header"))
        line_count = _read_u32(stream, "provenance line count")
        lines = []
        for _ in range(line_count):
            line_length = _read_u32(stream, "provenance line length")
            raw_line = _read_exact(stream, line_length, "provenance line")
            try:
                lines.append(raw_line.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise EventStoreError(
                    f"{path}: corrupt provenance line (digest check would fail): {exc}"
                ) from exc
        digest = _read_exact(stream, 32, "digest").decode("ascii")
        stamp = ProvenanceStamp(history=tuple(lines), digest=digest)
        if not stamp.matches(ProvenanceStamp(history=tuple(lines),
                                             digest=ProvenanceStamp._digest_of(lines))):
            raise EventStoreError(f"{path}: provenance digest does not match history")
        event_count = _read_u32(stream, "event count")
        offset = stream.tell()
    return EventFile(
        path=path,
        header=header,
        stamp=stamp,
        event_count=event_count,
        _events_offset=offset,
    )
