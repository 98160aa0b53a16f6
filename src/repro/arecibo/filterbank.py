"""Filterbank data: dynamic spectra from the telescope.

A :class:`Filterbank` is a (channels x time samples) float32 array with its
frequency axis and sampling time — the "dynamic spectra" acquired at the
telescope and recorded to local disks.  A small file format (JSON header +
raw float32 block) supports the acquire-to-disk and ship-to-CTC stages of
Figure 1 with real bytes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Union

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


def write_filterbank(path: Union[str, Path], filterbank: Filterbank) -> DataSize:
    """Serialize to disk; returns bytes written."""
    path = Path(path)
    header = json.dumps(
        {
            "freq_low": filterbank.freq_low_mhz,
            "freq_high": filterbank.freq_high_mhz,
            "tsamp": filterbank.tsamp_s,
            "pointing": filterbank.pointing_id,
            "beam": filterbank.beam,
            "channels": filterbank.n_channels,
            "samples": filterbank.n_samples,
        },
        sort_keys=True,
    ).encode("ascii")
    with path.open("wb") as stream:
        stream.write(_MAGIC)
        stream.write(_LEN.pack(len(header)))
        stream.write(header)
        # The array's own buffer, not a `.tobytes()` copy of it.
        stream.write(memoryview(np.ascontiguousarray(filterbank.data)).cast("B"))
    return DataSize.from_bytes(float(path.stat().st_size))


def read_filterbank(path: Union[str, Path]) -> Filterbank:
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
        body = stream.read(n_channels * n_samples * 4)
        if len(body) != n_channels * n_samples * 4:
            raise SearchError(f"{path}: truncated filterbank data")
        data = np.frombuffer(body, dtype=np.float32).reshape(n_channels, n_samples)
    return Filterbank(data=data.copy(), **metadata)
