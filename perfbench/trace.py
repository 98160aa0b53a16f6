"""Boundary tracer: timing wrappers installed from outside the program.

``Tracer.install`` wraps every function named in
:mod:`perfbench.boundaries` and rebinds the name in every loaded
``repro.*`` namespace that holds the same object (``from x import f``
copies included); ``uninstall`` puts every original back.  Each call
records an in-memory span ``(id, parent, root, name, start, end, phase)``
on a per-thread stack — spans of one top-level call share its ``root`` —
and feeds running per-name totals, so a long serving pass stays
attributable after the span list reaches :data:`MAX_SPANS`.

Self time is a span's duration minus the time its direct children cover.
Children run on the caller's thread, nested and disjoint, so their summed
durations are that cover; a span started on a worker thread has no parent
and counts as its own root.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

#: Spans kept in memory; past this only the running totals grow.
MAX_SPANS = 200_000

SETUP = "setup"


@dataclass(frozen=True)
class Boundary:
    """One traced function: its layer, span name, and import target.

    ``work`` optionally maps ``(args, kwargs, result)`` to an amount of
    work (bytes, events) summed per span name — counts are taken at the
    same boundary the time is.
    """

    layer: str
    span: str
    target: str  # "package.module:Qual.name"
    work: Optional[Callable[[tuple, dict, object], float]] = None


class Span(NamedTuple):
    sid: int
    parent: int  # 0 for a root
    root: int
    name: str
    start: float
    end: float
    phase: object  # SETUP or the pass index


class Totals:
    """Running sums for one span name."""

    __slots__ = ("calls", "inclusive", "self_time", "work")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive = 0.0  # outermost spans only: recursion counts once
        self.self_time = 0.0
        self.work = 0.0

    def add(self, other: "Totals") -> None:
        self.calls += other.calls
        self.inclusive += other.inclusive
        self.self_time += other.self_time
        self.work += other.work


class _ThreadState:
    __slots__ = ("stack", "active", "totals", "root_time", "is_main")

    def __init__(self) -> None:
        self.stack: List[list] = []  # frames: [sid, child seconds]
        self.active: Dict[str, int] = {}
        self.totals: Dict[Tuple[str, bool], Totals] = {}
        self.root_time: Dict[bool, float] = {True: 0.0, False: 0.0}
        self.is_main = threading.current_thread() is threading.main_thread()


def resolve(target: str) -> Tuple[object, str, object]:
    """``"pkg.mod:A.b"`` → (owner namespace object, attribute name, raw attribute)."""
    module_name, _, qualname = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    return owner, attr, raw


class Tracer:
    def __init__(self, boundaries: Iterable[Boundary]):
        self.boundaries = list(boundaries)
        self.layer_of = {b.span: b.layer for b in self.boundaries}
        #: Plain tuples in :class:`Span` field order — the collector stops
        #: tracking those, so a long span list does not slow the passes.
        self.spans: List[tuple] = []
        self.dropped = 0
        #: Stamped on every span; SETUP or the index of the traced pass.
        self.phase: object = SETUP
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    # -- install / uninstall -------------------------------------------------
    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        resolved = [(b, *resolve(b.target)) for b in self.boundaries]
        namespaces = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        for boundary, owner, attr, raw in resolved:
            if isinstance(raw, staticmethod):
                wrapped: object = staticmethod(self._wrap(raw.__func__, boundary))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, boundary))
            else:
                wrapped = self._wrap(raw, boundary)
            if inspect.ismodule(owner):
                for module in namespaces:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._rebind(module, key, raw, wrapped)
            else:
                self._rebind(owner, attr, raw, wrapped)

    def _rebind(self, owner: object, attr: str, raw: object, wrapped: object) -> None:
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- the wrappers ----------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def _enter(self, name: str) -> Tuple[_ThreadState, list, int]:
        state = self._state()
        frame = [next(self._ids), 0.0]
        state.stack.append(frame)
        depth = state.active.get(name, 0)
        state.active[name] = depth + 1
        return state, frame, depth

    def _exit(
        self, name: str, state: _ThreadState, frame: list, depth: int,
        start: float, end: float, work: float,
    ) -> None:
        stack = state.stack
        stack.pop()
        state.active[name] = depth
        duration = end - start
        setup = self.phase is SETUP
        key = (name, setup)
        totals = state.totals.get(key)
        if totals is None:
            totals = state.totals[key] = Totals()
        totals.calls += 1
        totals.self_time += duration - frame[1]
        totals.work += work
        if depth == 0:
            totals.inclusive += duration
        if stack:
            stack[-1][1] += duration
            parent, root = stack[-1][0], stack[0][0]
        else:
            parent, root = 0, frame[0]
            if state.is_main:
                state.root_time[setup] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame[0], parent, root, name, start, end, self.phase))
        else:
            self.dropped += 1

    def _wrap(self, fn: Callable, boundary: Boundary) -> Callable:
        name, measure = boundary.span, boundary.work
        enter, leave, clock = self._enter, self._exit, time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # A generator's time is the time spent inside its resumptions,
            # not the consumer's: one span per resumption.
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    state, frame, depth = enter(name)
                    start = clock()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        leave(name, state, frame, depth, start, clock(), 0.0)
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state, frame, depth = enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(name, state, frame, depth, start, clock(), 0.0)
                raise
            end = clock()
            work = measure(args, kwargs, result) if measure is not None else 0.0
            leave(name, state, frame, depth, start, end, work)
            return result

        return traced

    # -- reading the results -----------------------------------------------------
    def totals(self, setup: bool = False) -> Dict[str, Totals]:
        """Per-span-name sums over every thread, for set-up or for the passes."""
        merged: Dict[str, Totals] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for (name, is_setup), totals in list(state.totals.items()):
                if is_setup == setup:
                    merged.setdefault(name, Totals()).add(totals)
        return merged

    def root_seconds(self, setup: bool = False) -> float:
        """Main-thread wall covered by root spans (what is *not* unattributed)."""
        with self._lock:
            return sum(state.root_time[setup] for state in self._states)

    def layer_self_seconds(self, setup: bool = False) -> Dict[str, float]:
        layers: Dict[str, float] = {}
        for name, totals in self.totals(setup).items():
            layer = self.layer_of[name]
            layers[layer] = layers.get(layer, 0.0) + totals.self_time
        return layers

    def spans_named(self, name: str, phase: object) -> List[Span]:
        return [Span(*s) for s in self.spans if s[3] == name and s[6] == phase]
