"""A fixed piece of work that says how fast the box is running right now.

The reference box is a 2-core guest on a shared host.  With nothing else
running in the guest and no steal time reported, whole runs read 1.3-2x
slower for stretches of tens of seconds to minutes, and even a quiet hour
drifts by +-10 %: the host, not the program.  A bound of 25 % cannot be
held on raw wall time there.  So every timed interval of a run (the
import, each set-up, each pass) is bracketed by this probe, and the
interval is reported **at reference speed**::

    speed factor = mean(probe before, probe after) / the reference reading
    reported     = measured / speed factor

Two things were learned from the probes of some 500 runs and shape it:

* The host slows kinds of code differently.  In the worst stretch seen,
  interpreter-bound work (bytecode, dicts, json, pickle, sqlite) ran 2x
  slower while numpy's array loops ran 1.35x slower, and the workloads
  followed their kind.  So there are two probes, ``interpreter`` and
  ``arrays``, and a workload names the one it is bound by
  (``Workload.bound_by``: ``arrays`` for the three Figure-1 workloads,
  whose time is ~95 % numpy kernels, ``interpreter`` for the rest and for
  the import).
* The slowness fluctuates within tens of milliseconds, so a probe has to
  average over it: the fastest of several rounds reads a quiet box in the
  middle of a slow stretch.  But there are also sporadic stalls of tens of
  milliseconds that add 40 % to a probe and 1 % to a pass.  A probe is
  therefore :data:`ROUNDS` rounds of ~10 ms and reads the mean of all but
  the slowest one.

The probe touches nothing of the program under test, so no change to the
program can move it, and two commits measured through it are measured
through the same ruler.  The measured (raw) times and every probe are kept
in the ``--detail`` file and, on a traced run, in ``perfbench.raw_wall_s``
and ``perfbench.speed_factor``.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import sqlite3
import time
from typing import Callable, Dict, List, Tuple

import numpy

ROUNDS = 8

_BLOCK = numpy.random.default_rng(20060403).standard_normal((24, 4096)).astype(numpy.float32)
_POWER, _SCAN, _SORTED = (numpy.empty_like(_BLOCK) for _ in range(3))
_ROWS = [(index, f"http://site{index % 37}.example/page{index}", index * 0.25)
         for index in range(400)]
_RECORDS = [{"kind": "stage.end", "stage": f"s{index}", "t": index * 0.5,
             "attrs": {"bytes": index * 1024, "inputs": ["a", "b"]}} for index in range(120)]


def _bytecode(count: int = 50_000) -> int:
    """Bytecode, dict and list traffic, small-int and str objects."""
    table: Dict[int, list] = {}
    total = 0
    for index in range(count):
        key = index & 1023
        entry = table.get(key)
        if entry is None:
            table[key] = entry = [0, str(key)]
        entry[0] += index % 7
        total += len(entry[1])
    return total


def _records() -> int:
    """json, pickle, sha256 and an in-memory sqlite table with an index."""
    found = 0
    for _ in range(2):
        text = json.dumps(_RECORDS, sort_keys=True)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        restored = pickle.loads(pickle.dumps(json.loads(text), protocol=pickle.HIGHEST_PROTOCOL))
        connection = sqlite3.connect(":memory:")
        try:
            connection.execute("CREATE TABLE pages (id INTEGER PRIMARY KEY, url TEXT, score REAL)")
            connection.execute("CREATE INDEX by_url ON pages (url)")
            connection.executemany("INSERT INTO pages VALUES (?, ?, ?)", _ROWS)
            for row in _ROWS[::4]:
                found += len(connection.execute(
                    "SELECT id, score FROM pages WHERE url = ?", (row[1],)).fetchall())
        finally:
            connection.close()
        found += len(restored) + len(digest)
    return found


def _arrays() -> float:
    """Elementwise arithmetic, scan, partition and sort over a few hundred KB.

    Every result lands in a buffer made at import, and there is no FFT
    (pocketfft allocates its workspace per call): with fresh temporaries the
    reading depends on what the allocator has been through — it fell by a
    third after the first Figure-1 run of a process.
    """
    for _ in range(14):
        numpy.multiply(_BLOCK, _BLOCK, out=_POWER)
        numpy.add(_POWER, _BLOCK, out=_POWER)
        numpy.cumsum(_POWER, axis=1, out=_SCAN)
        numpy.subtract(_SCAN, _POWER, out=_SORTED)
        _SORTED.partition(_SORTED.shape[1] // 2, axis=1)
        _SORTED.sort(axis=1)
    return float(_SORTED[:, -1].sum() + _SCAN[:, -1].sum())


#: kind -> the parts of one round
KINDS: Dict[str, Tuple[Callable[[], object], ...]] = {
    "interpreter": (_bytecode, _records),
    "arrays": (_arrays,),
}

#: What each probe reads on the reference box in a quiet hour (medians of the
#: probes taken inside 140 runs, every workload, 20 seeds).  Reported times
#: are seconds at this speed.
REFERENCE = {"interpreter": 0.0660, "arrays": 0.0720}


def probe(kind: str) -> float:
    """Seconds for :data:`ROUNDS` rounds of the kind's fixed work, the slowest left out."""
    clock = time.perf_counter
    parts = KINDS[kind]
    rounds = []
    for _ in range(ROUNDS):
        start = clock()
        for part in parts:
            part()
        rounds.append(clock() - start)
    return sum(rounds) - max(rounds)


class SpeedMeter:
    """Probes taken through a run; every one is kept for the detail file."""

    def __init__(self) -> None:
        for kind in KINDS:  # the first call pays for FFT plans and sqlite start-up
            probe(kind)
        self.readings: List[Tuple[str, float]] = []

    def sample(self, kind: str) -> float:
        self.readings.append((kind, probe(kind)))
        return self.readings[-1][1]


def speed_factor(before: float, after: float, kind: str) -> float:
    """How much slower than the reference the box ran code of ``kind`` between two probes."""
    return (before + after) / 2.0 / REFERENCE[kind]
