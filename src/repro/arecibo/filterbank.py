"""Filterbank data: dynamic spectra from the telescope.

A :class:`Filterbank` is a (channels x time samples) float32 array with its
frequency axis and sampling time — the "dynamic spectra" acquired at the
telescope and recorded to local disks.  A small file format (JSON header +
raw float32 block) holds them on disk, and the file is where Figure 1's
raw data lives: a :class:`StagedBeam` names one beam's file, and the
search maps the block back read-only (:func:`read_filterbank`) one beam
at a time instead of carrying arrays from stage to stage.

A file is written whole or not at all: :func:`write_filterbank` streams
into a temp file beside the target and renames it into place, so a
present file under its name is complete.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple, Union

import numpy as np

from repro.core.errors import SearchError
from repro.core.units import DataSize, Duration

_MAGIC = b"ALFAFB01"
_LEN = struct.Struct("<I")

# Dispersion constant: delay(s) = KDM * DM * (f^-2 - fref^-2), f in MHz.
KDM = 4.148808e3


@dataclass
class Filterbank:
    """One beam's dynamic spectrum for one pointing."""

    data: np.ndarray          # (n_channels, n_samples) float32
    freq_low_mhz: float
    freq_high_mhz: float
    tsamp_s: float
    pointing_id: int = 0
    beam: int = 0

    def __post_init__(self) -> None:
        if self.data.ndim != 2:
            raise SearchError("filterbank data must be 2-D (channels x samples)")
        if self.freq_high_mhz <= self.freq_low_mhz:
            raise SearchError("need freq_high > freq_low")
        if self.tsamp_s <= 0:
            raise SearchError("sampling time must be positive")
        self.data = np.asarray(self.data, dtype=np.float32)

    @property
    def n_channels(self) -> int:
        return int(self.data.shape[0])

    @property
    def n_samples(self) -> int:
        return int(self.data.shape[1])

    @property
    def duration(self) -> Duration:
        return Duration(self.n_samples * self.tsamp_s)

    @property
    def size(self) -> DataSize:
        return DataSize.from_bytes(float(self.data.nbytes))

    @property
    def channel_freqs_mhz(self) -> np.ndarray:
        """Center frequency of each channel, ascending."""
        edges = np.linspace(self.freq_low_mhz, self.freq_high_mhz, self.n_channels + 1)
        return ((edges[:-1] + edges[1:]) / 2.0).astype(np.float64)


def dispersion_delay_s(dm: float, freq_mhz: np.ndarray, ref_mhz: float) -> np.ndarray:
    """Cold-plasma dispersion delay relative to ``ref_mhz`` (seconds)."""
    if dm < 0:
        raise SearchError("DM cannot be negative")
    return KDM * dm * (freq_mhz**-2 - ref_mhz**-2)


def _header(beam: "Union[Filterbank, StagedBeam]", shape: Tuple[int, ...]) -> bytes:
    """Everything a file holds before its data block; ``beam`` supplies
    the metadata, ``shape`` the block's (channels, samples)."""
    n_channels, n_samples = shape
    header = json.dumps(
        {
            "freq_low": beam.freq_low_mhz,
            "freq_high": beam.freq_high_mhz,
            "tsamp": beam.tsamp_s,
            "pointing": beam.pointing_id,
            "beam": beam.beam,
            "channels": n_channels,
            "samples": n_samples,
        },
        sort_keys=True,
    ).encode("ascii")
    return _MAGIC + _LEN.pack(len(header)) + header


def write_filterbank(path: Union[str, Path], filterbank: Filterbank) -> DataSize:
    """Serialize to disk; returns bytes written.

    The bytes go to a temp file in ``path``'s directory, renamed over
    ``path`` once complete: a writer that dies mid-write leaves no file
    under the name, and no temp file when it dies by an exception.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as stream:
            stream.write(_header(filterbank, filterbank.data.shape))
            # The array's own buffer, not a `.tobytes()` copy of it.
            stream.write(memoryview(np.ascontiguousarray(filterbank.data)).cast("B"))
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return DataSize.from_bytes(float(path.stat().st_size))


def read_filterbank(path: Union[str, Path]) -> Filterbank:
    """The filterbank in ``path``, its block a read-only ``np.memmap``.

    Nothing is copied: the block's pages come from the file as they are
    touched and go with the last array that views them.
    """
    path = Path(path)
    with path.open("rb") as stream:
        magic = stream.read(len(_MAGIC))
        if magic != _MAGIC:
            raise SearchError(f"{path} is not a filterbank file")
        length_field = stream.read(_LEN.size)
        if len(length_field) != _LEN.size:
            raise SearchError(f"{path}: truncated filterbank header")
        (header_length,) = _LEN.unpack(length_field)
        try:
            header = json.loads(stream.read(header_length).decode("ascii"))
            n_channels = int(header["channels"])
            n_samples = int(header["samples"])
            metadata = dict(
                freq_low_mhz=float(header["freq_low"]),
                freq_high_mhz=float(header["freq_high"]),
                tsamp_s=float(header["tsamp"]),
                pointing_id=int(header["pointing"]),
                beam=int(header["beam"]),
            )
        except KeyError as exc:
            raise SearchError(f"{path}: filterbank header lacks {exc}") from exc
        except (ValueError, UnicodeDecodeError, TypeError) as exc:
            raise SearchError(f"{path}: bad filterbank header: {exc}") from exc
        offset = stream.tell()
        if os.fstat(stream.fileno()).st_size - offset < n_channels * n_samples * 4:
            raise SearchError(f"{path}: truncated filterbank data")
    data = np.memmap(
        path, dtype=np.float32, mode="r", offset=offset, shape=(n_channels, n_samples)
    )
    return Filterbank(data=data, **metadata)


@dataclass(frozen=True)
class StagedBeam:
    """One beam's dynamic spectrum where it lives: its staging file.

    A handle, not the data: the path, where the block starts, its shape
    and the :class:`Filterbank` metadata.  It is what Figure 1 keeps in
    stashes, cache entries and shard tasks; :meth:`open` maps the block.

    Unpickling a handle checks its file (:meth:`check`), so a cache entry
    naming a lost or torn file fails to load — which a store reads as a
    miss, and the recompute writes the file again.
    """

    path: str
    offset: int
    shape: Tuple[int, int]
    freq_low_mhz: float
    freq_high_mhz: float
    tsamp_s: float
    pointing_id: int
    beam: int

    @classmethod
    def stage(cls, path: Union[str, Path], filterbank: Filterbank) -> "StagedBeam":
        """Write ``filterbank`` to ``path``; returns its handle.

        Always a fresh write, renamed over whatever the name held: the
        file is what this call simulated, never bytes left by an earlier
        run, and a mapping already open keeps the file it opened.
        """
        write_filterbank(path, filterbank)
        return cls(
            path=str(path),
            offset=len(_header(filterbank, filterbank.data.shape)),
            shape=(filterbank.n_channels, filterbank.n_samples),
            freq_low_mhz=filterbank.freq_low_mhz,
            freq_high_mhz=filterbank.freq_high_mhz,
            tsamp_s=filterbank.tsamp_s,
            pointing_id=filterbank.pointing_id,
            beam=filterbank.beam,
        )

    @property
    def size(self) -> DataSize:
        """Bytes of the data block (:attr:`Filterbank.size`)."""
        return DataSize.from_bytes(float(self.shape[0] * self.shape[1] * 4))

    @property
    def file_size(self) -> DataSize:
        """Bytes of the whole file, header included."""
        return DataSize.from_bytes(float(self.offset) + self.size.bytes)

    def check(self) -> None:
        """Raise :class:`SearchError` unless the file is whole: present,
        exactly :attr:`file_size` long, and headed by this beam's header."""
        header = _header(self, self.shape)
        try:
            with open(self.path, "rb") as stream:
                length = os.fstat(stream.fileno()).st_size
                whole = length == self.file_size.bytes and stream.read(len(header)) == header
        except OSError as exc:
            raise SearchError(f"{self.path}: staged beam unreadable: {exc}") from exc
        if not whole:
            raise SearchError(f"{self.path}: staged beam is not whole")

    def open(self) -> Filterbank:
        """The beam, its block mapped read-only from the file."""
        return read_filterbank(self.path)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.check()
