"""Unit-safe quantities used throughout the library.

The paper reasons almost exclusively in data sizes (``14 Terabytes of raw
data``), rates (``250 GB/day``, ``100 Mb/sec``), and durations (``3-hour
observing sessions``).  These three quantity types, with a small algebra
connecting them (size / rate = duration, rate * duration = size), keep the
simulators honest: a bandwidth expressed in megabits per second cannot be
silently added to a disk throughput expressed in megabytes per second.

All quantities are immutable and hashable, compare by magnitude, and render
with a human-friendly unit chosen automatically.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

from repro.core.errors import UnitError

# Decimal prefixes: storage vendors, network engineers, and the paper itself
# all use powers of ten (a "Terabyte" of telescope data is 1e12 bytes).
_KB = 1_000.0
_MB = 1_000_000.0
_GB = 1_000_000_000.0
_TB = 1_000_000_000_000.0
_PB = 1_000_000_000_000_000.0

_SECOND = 1.0
_MINUTE = 60.0
_HOUR = 3600.0
_DAY = 86400.0
_WEEK = 7 * _DAY
_YEAR = 365.25 * _DAY

_SIZE_SUFFIXES = {
    "b": 1.0 / 8.0,
    "byte": 1.0,
    "bytes": 1.0,
    "kb": _KB,
    "mb": _MB,
    "gb": _GB,
    "tb": _TB,
    "pb": _PB,
}

_DURATION_SUFFIXES = {
    "s": _SECOND,
    "sec": _SECOND,
    "second": _SECOND,
    "seconds": _SECOND,
    "min": _MINUTE,
    "minute": _MINUTE,
    "minutes": _MINUTE,
    "h": _HOUR,
    "hr": _HOUR,
    "hour": _HOUR,
    "hours": _HOUR,
    "d": _DAY,
    "day": _DAY,
    "days": _DAY,
    "w": _WEEK,
    "week": _WEEK,
    "weeks": _WEEK,
    "y": _YEAR,
    "yr": _YEAR,
    "year": _YEAR,
    "years": _YEAR,
}

_QUANTITY_RE = re.compile(r"^\s*([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*([a-zA-Z/]+)\s*$")

Number = Union[int, float]


def _check_finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise UnitError(f"{what} must be finite, got {value!r}")
    return float(value)


@dataclass(frozen=True, order=True)
class DataSize:
    """An amount of data, stored internally in bytes."""

    bytes: float

    def __post_init__(self) -> None:
        _check_finite(self.bytes, "DataSize")
        if self.bytes < 0:
            raise UnitError(f"DataSize cannot be negative: {self.bytes}")

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_bytes(cls, n: Number) -> "DataSize":
        return cls(float(n))

    @classmethod
    def megabytes(cls, n: Number) -> "DataSize":
        return cls(float(n) * _MB)

    @classmethod
    def gigabytes(cls, n: Number) -> "DataSize":
        return cls(float(n) * _GB)

    @classmethod
    def terabytes(cls, n: Number) -> "DataSize":
        return cls(float(n) * _TB)

    @classmethod
    def petabytes(cls, n: Number) -> "DataSize":
        return cls(float(n) * _PB)

    @classmethod
    def zero(cls) -> "DataSize":
        return cls(0.0)

    @classmethod
    def parse(cls, text: str) -> "DataSize":
        """Parse strings like ``"14 TB"``, ``"100MB"``, or ``"1.5 pb"``."""
        match = _QUANTITY_RE.match(text)
        if not match:
            raise UnitError(f"cannot parse data size: {text!r}")
        value, suffix = float(match.group(1)), match.group(2).lower()
        if suffix not in _SIZE_SUFFIXES:
            raise UnitError(f"unknown data size unit {suffix!r} in {text!r}")
        return cls(value * _SIZE_SUFFIXES[suffix])

    # -- accessors ---------------------------------------------------------
    @property
    def kb(self) -> float:
        return self.bytes / _KB

    @property
    def gb(self) -> float:
        return self.bytes / _GB

    @property
    def tb(self) -> float:
        return self.bytes / _TB

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "DataSize") -> "DataSize":
        if not isinstance(other, DataSize):
            return NotImplemented
        return DataSize(self.bytes + other.bytes)

    def __sub__(self, other: "DataSize") -> "DataSize":
        if not isinstance(other, DataSize):
            return NotImplemented
        if other.bytes > self.bytes:
            raise UnitError(f"data size would go negative: {self} - {other}")
        return DataSize(self.bytes - other.bytes)

    def __mul__(self, factor: Number) -> "DataSize":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        return DataSize(self.bytes * float(factor))

    __rmul__ = __mul__

    def __truediv__(self, other: "Union[DataSize, Rate, Number]"):
        if isinstance(other, DataSize):
            if other.bytes == 0:
                raise UnitError("division by zero data size")
            return self.bytes / other.bytes
        if isinstance(other, Rate):
            if other.bytes_per_second == 0:
                raise UnitError("division by zero rate")
            return Duration(self.bytes / other.bytes_per_second)
        if isinstance(other, (int, float)):
            if other == 0:
                raise UnitError("division of data size by zero")
            return DataSize(self.bytes / float(other))
        return NotImplemented

    def __bool__(self) -> bool:
        return self.bytes > 0

    def __str__(self) -> str:
        for threshold, suffix in ((_PB, "PB"), (_TB, "TB"), (_GB, "GB"), (_MB, "MB"), (_KB, "KB")):
            if abs(self.bytes) >= threshold:
                return f"{self.bytes / threshold:.2f} {suffix}"
        return f"{self.bytes:.0f} B"


@dataclass(frozen=True, order=True)
class Duration:
    """A span of time, stored internally in seconds."""

    seconds: float

    def __post_init__(self) -> None:
        _check_finite(self.seconds, "Duration")
        if self.seconds < 0:
            raise UnitError(f"Duration cannot be negative: {self.seconds}")

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_seconds(cls, n: Number) -> "Duration":
        return cls(float(n))

    @classmethod
    def minutes(cls, n: Number) -> "Duration":
        return cls(float(n) * _MINUTE)

    @classmethod
    def hours(cls, n: Number) -> "Duration":
        return cls(float(n) * _HOUR)

    @classmethod
    def days(cls, n: Number) -> "Duration":
        return cls(float(n) * _DAY)

    @classmethod
    def years(cls, n: Number) -> "Duration":
        return cls(float(n) * _YEAR)

    @classmethod
    def zero(cls) -> "Duration":
        return cls(0.0)

    @classmethod
    def parse(cls, text: str) -> "Duration":
        """Parse strings like ``"3 hours"``, ``"45min"``, or ``"5 years"``."""
        match = _QUANTITY_RE.match(text)
        if not match:
            raise UnitError(f"cannot parse duration: {text!r}")
        value, suffix = float(match.group(1)), match.group(2).lower()
        if suffix not in _DURATION_SUFFIXES:
            raise UnitError(f"unknown duration unit {suffix!r} in {text!r}")
        return cls(value * _DURATION_SUFFIXES[suffix])

    # -- accessors ---------------------------------------------------------
    @property
    def minutes_(self) -> float:
        return self.seconds / _MINUTE

    @property
    def hours_(self) -> float:
        return self.seconds / _HOUR

    @property
    def days_(self) -> float:
        return self.seconds / _DAY

    @property
    def years_(self) -> float:
        return self.seconds / _YEAR

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "Duration") -> "Duration":
        if not isinstance(other, Duration):
            return NotImplemented
        return Duration(self.seconds + other.seconds)

    def __sub__(self, other: "Duration") -> "Duration":
        if not isinstance(other, Duration):
            return NotImplemented
        if other.seconds > self.seconds:
            raise UnitError(f"duration would go negative: {self} - {other}")
        return Duration(self.seconds - other.seconds)

    def __mul__(self, factor: Number) -> "Duration":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        return Duration(self.seconds * float(factor))

    __rmul__ = __mul__

    def __truediv__(self, other: "Union[Duration, Number]"):
        if isinstance(other, Duration):
            if other.seconds == 0:
                raise UnitError("division by zero duration")
            return self.seconds / other.seconds
        if isinstance(other, (int, float)):
            if other == 0:
                raise UnitError("division of duration by zero")
            return Duration(self.seconds / float(other))
        return NotImplemented

    def __bool__(self) -> bool:
        return self.seconds > 0

    def __str__(self) -> str:
        for threshold, suffix in ((_YEAR, "yr"), (_WEEK, "wk"), (_DAY, "d"), (_HOUR, "h"), (_MINUTE, "min")):
            if abs(self.seconds) >= threshold:
                return f"{self.seconds / threshold:.2f} {suffix}"
        return f"{self.seconds:.2f} s"


@dataclass(frozen=True, order=True)
class Rate:
    """A data rate, stored internally in bytes per second.

    Constructors exist for both network-style units (megabits per second)
    and storage-style units (megabytes per second or gigabytes per day),
    because the paper mixes the two freely.
    """

    bytes_per_second: float

    def __post_init__(self) -> None:
        _check_finite(self.bytes_per_second, "Rate")
        if self.bytes_per_second < 0:
            raise UnitError(f"Rate cannot be negative: {self.bytes_per_second}")

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_bytes_per_second(cls, n: Number) -> "Rate":
        return cls(float(n))

    @classmethod
    def megabits_per_second(cls, n: Number) -> "Rate":
        return cls(float(n) * _MB / 8.0)

    @classmethod
    def gigabits_per_second(cls, n: Number) -> "Rate":
        return cls(float(n) * _GB / 8.0)

    @classmethod
    def megabytes_per_second(cls, n: Number) -> "Rate":
        return cls(float(n) * _MB)

    @classmethod
    def per(cls, size: DataSize, duration: Duration) -> "Rate":
        if duration.seconds == 0:
            raise UnitError("rate over a zero duration")
        return cls(size.bytes / duration.seconds)

    @classmethod
    def zero(cls) -> "Rate":
        return cls(0.0)

    # -- accessors ---------------------------------------------------------
    @property
    def mbps(self) -> float:
        """Megabits per second."""
        return self.bytes_per_second * 8.0 / _MB

    @property
    def mb_per_second(self) -> float:
        return self.bytes_per_second / _MB

    @property
    def gb_per_day(self) -> float:
        return self.bytes_per_second * _DAY / _GB

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "Rate") -> "Rate":
        if not isinstance(other, Rate):
            return NotImplemented
        return Rate(self.bytes_per_second + other.bytes_per_second)

    def __sub__(self, other: "Rate") -> "Rate":
        if not isinstance(other, Rate):
            return NotImplemented
        if other.bytes_per_second > self.bytes_per_second:
            raise UnitError(f"rate would go negative: {self} - {other}")
        return Rate(self.bytes_per_second - other.bytes_per_second)

    def __mul__(self, other: "Union[Duration, Number]"):
        if isinstance(other, Duration):
            return DataSize(self.bytes_per_second * other.seconds)
        if isinstance(other, (int, float)):
            return Rate(self.bytes_per_second * float(other))
        return NotImplemented

    def __rmul__(self, other: "Union[Duration, Number]"):
        return self.__mul__(other)

    def __truediv__(self, other: "Union[Rate, Number]"):
        if isinstance(other, Rate):
            if other.bytes_per_second == 0:
                raise UnitError("division by zero rate")
            return self.bytes_per_second / other.bytes_per_second
        if isinstance(other, (int, float)):
            if other == 0:
                raise UnitError("division of rate by zero")
            return Rate(self.bytes_per_second / float(other))
        return NotImplemented

    def __bool__(self) -> bool:
        return self.bytes_per_second > 0

    def __str__(self) -> str:
        if self.bytes_per_second >= _GB:
            return f"{self.bytes_per_second / _GB:.2f} GB/s"
        if self.bytes_per_second >= _MB:
            return f"{self.bytes_per_second / _MB:.2f} MB/s"
        if self.bytes_per_second >= _KB:
            return f"{self.bytes_per_second / _KB:.2f} KB/s"
        return f"{self.bytes_per_second:.2f} B/s"
