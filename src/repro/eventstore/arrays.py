"""Packing numpy arrays into ASU payloads.

Detector data is numeric; ASU payloads are opaque bytes.  This module is
the bridge: a tiny self-describing binary encoding (dtype + shape header,
then the raw buffer) so any pipeline stage can round-trip arrays through
event files without pickling.

A run repeats a handful of (dtype, shape) pairs tens of thousands of
times, so both directions intern the header: building it and parsing it
cost one dict lookup after the first array of a kind.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Dict, Tuple

import numpy as np

from repro.core.errors import EventStoreError
from repro.eventstore.model import ASU

_LEN = struct.Struct("<I")

# Interned headers.  Plain dicts read and written with single get/set
# operations (reconstruction shards pack and unpack on threads); a table
# that reaches the bound is dropped and refills from the arrays in flight.
_MAX_INTERNED = 512
_FRAMED_HEADERS: Dict[Tuple[str, Tuple[int, ...]], bytes] = {}
_PARSED_HEADERS: Dict[bytes, Tuple[np.dtype, Tuple[int, ...], int]] = {}


def _intern(table: dict, key: object, value: object) -> None:
    if len(table) >= _MAX_INTERNED:
        table.clear()
    table[key] = value


def array_header(dtype: np.dtype, shape: Tuple[int, ...]) -> bytes:
    """The length-prefixed JSON header in front of every such array's bytes."""
    key = (dtype.str, shape)
    framed = _FRAMED_HEADERS.get(key)
    if framed is None:
        if dtype.hasobject:
            raise EventStoreError(
                f"cannot pack object dtype {dtype.str!r}: its buffer holds pointers"
            )
        header = json.dumps({"dtype": dtype.str, "shape": list(shape)}).encode("ascii")
        framed = _LEN.pack(len(header)) + header
        _intern(_FRAMED_HEADERS, key, framed)
    return framed


def pack_array(array: np.ndarray) -> bytes:
    """Serialize an array: 4-byte header length, JSON header, raw bytes."""
    array = np.ascontiguousarray(array)
    return array_header(array.dtype, array.shape) + array.tobytes()


def _parse_header(raw: bytes) -> Tuple[np.dtype, Tuple[int, ...], int]:
    """(dtype, shape, body length in bytes) of one JSON header."""
    try:
        header = json.loads(raw.decode("ascii"))
        dtype = np.dtype(header["dtype"])
        shape = tuple(int(dim) for dim in header["shape"])
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise EventStoreError(f"bad array payload header: {exc}") from exc
    if dtype.hasobject:
        raise EventStoreError(
            f"bad array payload header: object dtype {dtype.str!r} cannot be "
            "read from a buffer"
        )
    return dtype, shape, dtype.itemsize * math.prod(shape)


def unpack_array(payload: bytes) -> np.ndarray:
    """Inverse of :func:`pack_array`."""
    if len(payload) < 4:
        raise EventStoreError("array payload too short for header length")
    (header_length,) = _LEN.unpack_from(payload)
    body_offset = 4 + header_length
    if len(payload) < body_offset:
        raise EventStoreError("array payload truncated in header")
    raw = bytes(payload[4:body_offset])
    parsed = _PARSED_HEADERS.get(raw)
    if parsed is None:
        parsed = _parse_header(raw)
        _intern(_PARSED_HEADERS, raw, parsed)
    dtype, shape, expected = parsed
    if len(payload) - body_offset != expected:
        raise EventStoreError(
            f"array payload body is {len(payload) - body_offset} bytes, "
            f"expected {expected}"
        )
    return np.frombuffer(payload, dtype=dtype, offset=body_offset).reshape(shape).copy()


def array_asu(name: str, array: np.ndarray) -> ASU:
    """Build an ASU holding one array."""
    return ASU(name=name, payload=pack_array(array))


def asu_array(asu: ASU) -> np.ndarray:
    """Extract the array from an ASU built by :func:`array_asu`."""
    return unpack_array(asu.payload)
