"""Shared fixtures for EventStore tests."""

import json
import random
import struct

import numpy as np
import pytest

from repro.core.errors import EventStoreError
from repro.core.units import Duration
from repro.eventstore.fileformat import MAGIC
from repro.eventstore.model import ASU, Event, Run
from repro.eventstore.provenance import stamp_step


def make_run(number=1, start_time=100.0, event_count=None, events=None):
    count = event_count if event_count is not None else (len(events) if events else 0)
    return Run.create(
        number=number,
        start_time=start_time,
        duration=Duration.minutes(50),
        event_count=count,
        conditions={"beam_energy": "5.29GeV"},
    )


def make_events(run_number=1, count=10, asu_names=("tracks", "hits"), seed=0,
                payload_bytes=64):
    rng = random.Random(seed)
    events = []
    for event_number in range(count):
        asus = {
            name: ASU(name=name, payload=rng.randbytes(payload_bytes))
            for name in asu_names
        }
        events.append(Event(run_number=run_number, event_number=event_number, asus=asus))
    return events


@pytest.fixture()
def recon_stamp():
    return stamp_step("PassRecon", "Feb13_04_P2", {"calibration": "cal_v7"})


# -- field-at-a-time oracles ---------------------------------------------------
# The codec, writer and reader as they were before they went per file: one
# json.dumps per array, one stream.write/read per field.  The production
# code must produce and accept exactly these bytes.
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


def oracle_pack_array(array):
    array = np.ascontiguousarray(array)
    header = json.dumps(
        {"dtype": array.dtype.str, "shape": list(array.shape)}
    ).encode("ascii")
    return _U32.pack(len(header)) + header + array.tobytes()


def oracle_write_event_file(path, header, events, stamp):
    with open(path, "wb") as stream:
        stream.write(MAGIC)
        header_bytes = header.to_json()
        stream.write(_U32.pack(len(header_bytes)))
        stream.write(header_bytes)
        stream.write(_U32.pack(len(stamp.history)))
        for line in stamp.history:
            encoded = line.encode("utf-8")
            stream.write(_U32.pack(len(encoded)))
            stream.write(encoded)
        stream.write(stamp.digest.encode("ascii"))
        stream.write(_U32.pack(len(events)))
        for event in events:
            stream.write(_U32.pack(event.event_number))
            stream.write(_U16.pack(len(event.asus)))
            for name in sorted(event.asus):
                encoded = name.encode("utf-8")
                stream.write(_U16.pack(len(encoded)))
                stream.write(encoded)
                stream.write(_U32.pack(len(event.asus[name].payload)))
                stream.write(event.asus[name].payload)


def oracle_read_events(event_file, asu_names=None):
    """Every event of an opened file, one ``read`` per field.

    Raises ``EventStoreError`` naming the field a short read cut, and — as a
    ``seek`` past the end cannot fail — nothing for a cut inside a skipped
    payload that no later field follows.
    """

    def read_exact(stream, n, what):
        data = stream.read(n)
        if len(data) != n:
            raise EventStoreError(f"truncated event file while reading {what}")
        return data

    wanted = set(asu_names) if asu_names is not None else None
    events = []
    with open(event_file.path, "rb") as stream:
        stream.seek(event_file._events_offset)
        for _ in range(event_file.event_count):
            (event_number,) = _U32.unpack(read_exact(stream, 4, "event number"))
            (asu_count,) = _U16.unpack(read_exact(stream, 2, "ASU count"))
            asus = {}
            for _ in range(asu_count):
                (name_length,) = _U16.unpack(read_exact(stream, 2, "ASU name length"))
                name = read_exact(stream, name_length, "ASU name").decode("utf-8")
                (length,) = _U32.unpack(read_exact(stream, 4, "payload length"))
                if wanted is None or name in wanted:
                    asus[name] = ASU(name=name, payload=read_exact(stream, length, "payload"))
                else:
                    stream.seek(length, 1)
            events.append(
                Event(run_number=event_file.header.run_number,
                      event_number=event_number, asus=asus)
            )
    return events
