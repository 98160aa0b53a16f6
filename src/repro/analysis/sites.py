"""Shared site tables: calls that touch entropy, clocks, environment,
or OS handles.

The site rules (RPR001/RPR002) and the effect extractor
(:mod:`repro.analysis.effects`) ask the same question of a call —
"does this draw unseeded randomness or read the host clock?" — and
:func:`classify_call` is the one place it is answered, so a site the
rules flag and a site the effect summaries propagate cannot drift apart.
This module deliberately imports nothing from the rest of the analysis
package — it sits below :mod:`repro.analysis.linter` in the layering.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: Constructors that are safe *when given arguments* (a seed / bit
#: generator); calling them with no arguments seeds from OS entropy.
SEEDED_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "numpy.random.MT19937",
    "random.Random",
}

#: Never acceptable: OS-entropy sources with no seeding story at all.
ENTROPY_SOURCES = {
    "random.SystemRandom",
    "os.urandom",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbelow",
    "uuid.uuid4",
}

#: Any other call on these modules draws from the process-global stream.
GLOBAL_STREAM_PREFIXES = ("random.", "numpy.random.")

WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
}

#: Argless calls on these resolve "now" from the host clock.
DATETIME_NOW_CALLS = {
    "datetime.datetime.now",
    "datetime.datetime.today",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}


def classify_call(name: str, has_args: bool) -> Optional[Tuple[str, str]]:
    """``(hazard kind, message)`` for a call to the resolved ``name``.

    ``kind`` is ``"rng"`` (an unseeded or process-global draw) or
    ``"wall_clock"`` (a host-clock read); ``None`` means the call is
    neither.  ``has_args`` separates ``default_rng(seed)`` from
    ``default_rng()`` and ``datetime.now(tz)`` from ``datetime.now()``.
    """
    if name in ENTROPY_SOURCES:
        return "rng", f"{name}() draws OS entropy and can never be seeded"
    if name in SEEDED_CONSTRUCTORS:
        if has_args:
            return None
        return "rng", f"{name}() without a seed draws from OS entropy"
    if name.startswith(GLOBAL_STREAM_PREFIXES):
        return "rng", f"{name}() draws from the process-global RNG stream"
    if name in WALL_CLOCK_CALLS or (name in DATETIME_NOW_CALLS and not has_args):
        return "wall_clock", f"{name}() reads the host clock"
    return None


#: Host-environment reads that make behaviour machine-dependent.
ENV_READ_CALLS = {"os.getenv"}
ENV_OBJECTS = ("os.environ",)

#: Calls whose result is an OS-level handle.  A handle held in a closure
#: cell or module global cannot cross a process boundary (pickling fails
#: or, worse for locks, each child silently gets a fresh one).
HANDLE_CONSTRUCTORS: Dict[str, str] = {
    "open": "file",
    "io.open": "file",
    "gzip.open": "file",
    "bz2.open": "file",
    "lzma.open": "file",
    "tempfile.TemporaryFile": "file",
    "tempfile.NamedTemporaryFile": "file",
    "sqlite3.connect": "sqlite",
    "sqlite3.Connection": "sqlite",
    "threading.Lock": "lock",
    "threading.RLock": "lock",
    "threading.Condition": "lock",
    "threading.Semaphore": "lock",
    "threading.BoundedSemaphore": "lock",
    "threading.Event": "lock",
    "multiprocessing.Lock": "lock",
    "multiprocessing.RLock": "lock",
}

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = {
    "append",
    "appendleft",
    "extend",
    "extendleft",
    "insert",
    "remove",
    "pop",
    "popitem",
    "popleft",
    "clear",
    "add",
    "discard",
    "update",
    "setdefault",
    "sort",
    "reverse",
    "write",
    "writelines",
}
