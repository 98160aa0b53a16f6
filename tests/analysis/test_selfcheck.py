"""The codebase passes its own linter, and the figures pass flowcheck.

This is the PR's acceptance bar made executable: any future commit that
introduces an unseeded RNG, a stray wall-clock read, an unregistered
telemetry kind, hash-ordered accounting, or an undeclared cache
dependency fails the suite — not just the CI analysis job.
"""

import ast
import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis.callgraph import Program, _walk_scope
from repro.analysis.flowcheck import check_flow, figure_flows
from repro.analysis.linter import Analysis, Linter, summary_counts, unsuppressed
from tests.analysis.conftest import SRC

ROOT = SRC.parent


@pytest.fixture(scope="module")
def analysis(src_analysis):
    """The session's one pass over ``src/``, shared by every test below."""
    return src_analysis


@pytest.fixture(scope="module")
def findings(analysis):
    return Linter().lint(analysis)


def test_src_tree_has_no_unsuppressed_findings(findings):
    offenders = unsuppressed(findings)
    assert offenders == [], "\n".join(f.render() for f in offenders)


def test_suppressions_are_known_and_accounted(findings):
    """Every silenced finding is one of the deliberate, documented sites."""
    silenced = [f for f in findings if f.suppressed]
    sites = sorted(
        (Path(f.path).name, f.code, f.suppression) for f in silenced
    )
    # The preload's two perf counters (C9's MB/s) and the workload
    # replayer's five wall-latency probes (C21's latency_s; reported in
    # ReplayReport only — never on the bus).
    assert sites == [
        ("preload.py", "RPR002", "noqa"),
        ("preload.py", "RPR002", "noqa"),
        ("workload.py", "RPR002", "noqa"),
        ("workload.py", "RPR002", "noqa"),
        ("workload.py", "RPR002", "noqa"),
        ("workload.py", "RPR002", "noqa"),
        ("workload.py", "RPR002", "noqa"),
    ]
    counts = summary_counts(findings)
    assert counts["RPR002"] == {"flagged": 0, "suppressed": 7}


def test_figure_flows_pass_flowcheck():
    for flow, spec in figure_flows():
        issues = check_flow(flow, spec)
        assert issues == [], "\n".join(issue.render() for issue in issues)


_THREAD_STARTERS = {"Thread", "ThreadPoolExecutor"}

#: What an object needs only when a second thread can reach it.
_SYNC_PRIMITIVES = {
    "Lock", "RLock", "Event", "Condition", "Semaphore", "BoundedSemaphore",
    "Barrier", "local",
}


def _constructions(program, root, names, modules):
    """Sorted ``(path under root, line)`` of every one of ``names`` built or
    subclassed in ``program``'s files: a call of, or a class based on, the
    attribute (``threading.Thread(...)``, ``class S(threading.local)``) or a
    name imported from one of ``modules``, aliased or not."""
    found = []
    for source in program.sources:
        tree = source.tree
        local = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module in modules
            for alias in node.names
            if alias.name in names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                used = [node.func]
            elif isinstance(node, ast.ClassDef):
                used = node.bases
            else:
                continue
            found += [
                (Path(source.path).relative_to(root).as_posix(), expr.lineno)
                for expr in used
                if (isinstance(expr, ast.Attribute) and expr.attr in names)
                or (isinstance(expr, ast.Name) and expr.id in local)
            ]
    return sorted(found)


def _thread_constructions(program, root):
    return _constructions(program, root, _THREAD_STARTERS, ("threading", "concurrent.futures"))


def _sync_constructions(program, root):
    return _constructions(program, root, _SYNC_PRIMITIVES, ("threading", "multiprocessing"))


def test_only_kernel_tiles_start_threads(analysis, tmp_path):
    """``src/`` starts threads in one place, ``kernels.run_tiles``: the
    engine runs stages on one thread, shards run inline or in processes, and
    the WebLab preload loads its files on the calling thread."""
    sites = _thread_constructions(analysis.program, SRC)
    assert [path for path, _ in sites if path != "repro/core/kernels.py"] == []
    assert sites, "the scan no longer sees the kernel tile threads"
    (tmp_path / "pool.py").write_text(
        "from concurrent.futures import ThreadPoolExecutor as Pool\n"
        "import threading\n"
        "Pool(2)\n"
        "threading.Thread(target=print)\n"
    )
    assert _thread_constructions(Program.build([tmp_path]), tmp_path) == [
        ("pool.py", 3), ("pool.py", 4),
    ]


def test_no_object_outside_the_kernels_is_built_for_two_threads(analysis, tmp_path):
    """One thread owns every bus, registry, cache, injector and database,
    so ``src/`` builds no lock, event, condition, semaphore, barrier or
    thread-local outside ``core/kernels.py``, and only that module imports
    ``threading`` at all."""
    program = analysis.program
    assert [path for path, _ in _sync_constructions(program, SRC)
            if path != "repro/core/kernels.py"] == []
    importers = {
        Path(source.path).relative_to(SRC).as_posix()
        for source in program.sources
        for node in ast.walk(source.tree)
        if (isinstance(node, ast.Import) and "threading" in (a.name for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "threading")
    }
    assert importers == {"repro/core/kernels.py"}
    (tmp_path / "locks.py").write_text(
        "import threading as t\n"
        "from multiprocessing import RLock as Reentrant\n"
        "t.Lock()\n"
        "Reentrant()\n"
        "class Spans(t.local):\n"
        "    pass\n"
    )
    assert _sync_constructions(Program.build([tmp_path]), tmp_path) == [
        ("locks.py", 3), ("locks.py", 4), ("locks.py", 5),
    ]


#: What a kernel tile, run on a helper thread, may not reach: the books,
#: caches, fault state and stores of the thread that runs the flow.
_NOT_FROM_TILES = tuple(
    f"repro.{name}." for name in
    ("core.telemetry", "core.readcache", "core.stagecache", "core.faults", "db")
)
_TILE_EFFECTS = ("telemetry", "fault_state", "handle_capture")


def _tile_reach(analysis):
    """``{tile: what it reaches that it may not}`` for every callable
    passed to ``run_tiles``: any function of ``_NOT_FROM_TILES`` on a path
    through the program's call edges, then any ``_TILE_EFFECTS`` kind in
    its effect summary.  A tile the index cannot name is reported as
    such, keyed by where it is passed."""
    program = analysis.program
    found = {}
    for info in program.iter_functions():
        module = info.module
        body = info.node.body if isinstance(info.node.body, list) else [info.node.body]
        for node in _walk_scope(body):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            callee = module.imports.resolve(node.func)
            if callee is None and isinstance(node.func, ast.Name):
                callee = module.functions_by_name.get(node.func.id)
            if callee != "repro.core.kernels.run_tiles":
                continue
            arg = node.args[0]
            name = arg.id if isinstance(arg, ast.Name) else f"<lambda:{arg.lineno}>"
            tile = next(
                (q for q in (f"{info.qualname}.<locals>.{name}",
                             module.functions_by_name.get(name),
                             module.imports.resolve(arg))
                 if q in program.functions),
                None,
            )
            if tile is None:
                found[f"{module.name}:{node.lineno}"] = ["a tile the index cannot name"]
                continue
            reached, queue = set(), [tile]
            while queue:
                for callee in program.callees(queue.pop()) - reached:
                    reached.add(callee)
                    queue.append(callee)
            found[tile] = sorted(q for q in reached if q.startswith(_NOT_FROM_TILES)) + sorted(
                {effect.kind for effect in analysis.effects.effects_of(tile, _TILE_EFFECTS)}
            )
    return found


def test_no_kernel_tile_reaches_the_books(analysis, tmp_path):
    """The tiles are the only code that runs on a second thread, and none
    of them reaches telemetry, a cache, the fault injector or a database:
    that is why those objects need no lock."""
    assert _tile_reach(analysis) == {
        "repro.arecibo.fourier.search_dm_block.<locals>.search_tile": [],
        "repro.arecibo.singlepulse.search_single_pulses.<locals>.search_tile": [],
        "repro.core.kernels.shift_sum.<locals>.add_channels": [],
    }
    tree = {
        "__init__.py": "",
        "core/__init__.py": "",
        "core/kernels.py": "def run_tiles(fn, n):\n    return [fn(i) for i in range(n)]\n",
        "core/telemetry.py": "class Telemetry:\n    def emit(self, kind):\n        return kind\n",
        "db/__init__.py": "",
        "db/connection.py": "def connect():\n    return None\n",
        "search.py": textwrap.dedent("""\
            from repro.core.kernels import run_tiles
            from repro.db.connection import connect

            def clean(block):
                def tile(index):
                    return block[index]
                return run_tiles(tile, len(block))

            def metered(block, bus):
                def tile(index):
                    return bus.emit("span.start")
                return run_tiles(tile, len(block))

            def stored(block):
                return run_tiles(lambda index: connect(), len(block))

            def hidden(tiles):
                return run_tiles(tiles[0], 1)
        """),
    }
    for name, text in tree.items():
        path = tmp_path / "repro" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert _tile_reach(Analysis.build([tmp_path / "repro"])) == {
        "repro.search.clean.<locals>.tile": [],
        "repro.search.metered.<locals>.tile": ["telemetry"],
        "repro.search.stored.<locals>.<lambda:15>": ["repro.db.connection.connect"],
        "repro.search:18": ["a tile the index cannot name"],
    }


class TestDeepSelfScan:
    """The whole-program rules over src/: the interprocedural bar."""

    def test_deep_pass_has_no_unsuppressed_findings(self, analysis):
        deep = Linter(select=["RPR101", "RPR102", "RPR103", "RPR104"])
        offenders = unsuppressed(deep.lint(analysis))
        assert offenders == [], "\n".join(f.render() for f in offenders)

    def test_deep_suppression_inventory_is_exact(self, findings):
        """The RPR1xx rules are clean over src/ with zero noqa debt — any
        new suppression of one must be added here deliberately."""
        assert [f for f in findings if f.suppressed and f.code != "RPR002"] == []
        assert set(summary_counts(findings)) == {"RPR002"}

    def test_deep_pass_sees_the_real_pipelines(self, analysis):
        """The call graph actually resolves the figure flows — if binding
        detection regresses, the deep rules silently check nothing."""
        stats = analysis.stats()
        assert stats["modules"] >= 100
        assert stats["functions"] >= 1100
        assert stats["cache_bindings"] >= 14
        assert stats["shard_bindings"] >= 3
        assert stats["call_edges"] >= 850
        labels = {b.label for b in analysis.program.cache_bindings}
        assert "'acquire'" in labels  # arecibo transforms dict
        assert "'reconstruction'" in labels  # cleo transforms dict
        shard_fns = {
            b.fn_qualname.rpartition(".")[2]
            for b in analysis.program.shard_bindings
        }
        assert {
            "_search_pointing_shard",
            "_observe_pointing_shard",
            "_reconstruct_run_shard",
        } <= shard_fns


#: Public definitions that nothing but their own module or ``tests/`` reaches,
#: by why they stay.  ROADMAP item 3's worklist: a definition leaves this table
#: by gaining a caller or by being deleted, never silently.
ONLY_TESTS_REACH = {
    "reader of a format a flow writes: the round-trip oracle of its writer": """
        weblab.export.read_exported_metadata""",
    "builds the ``runs:A-B`` key that ``parse_run_key`` parses in production": """
        eventstore.model.run_range_key""",
    "per-trial reference twin a batched kernel is held bitwise-equal to": """
        arecibo.dedisperse.dedisperse_all_reference arecibo.folding.refine_period_reference
        arecibo.fourier.search_dm_block_reference""",
}


def _mentions(tree, modules=frozenset()):
    """What a syntax tree uses.  A bare entry can reach a top-level
    definition: a ``Name``, an imported name, an attribute of one of the
    imported ``modules`` (``flowcheck.issues_dict``).  A dotted entry
    (``".terabytes"``) is an attribute read and reaches methods only, so
    ``DataSize.terabytes`` does not vouch for a function ``terabytes``.
    The ``module:Class.method`` strings of perfbench's boundary table are
    read as the expression after the colon."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add("." + node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[\w.]+:[\w.]+", node.value):
                head, *rest = node.value.partition(":")[2].split(".")
                found.add(head)
                found.update("." + attr for attr in rest)
    return found


def _reexports(program):
    """Package name -> the ``repro.`` names its ``__init__`` imports at top
    level and its own body never uses, for every package that has any."""
    found = {}
    for module in program.modules.values():
        if not module.is_package:
            continue
        imported, used = set(), set()
        for stmt in module.source.tree.body:
            if isinstance(stmt, ast.ImportFrom) and (stmt.module or "").startswith("repro."):
                imported.update(alias.asname or alias.name for alias in stmt.names)
            else:
                used |= _mentions(stmt)
        if unused := imported - used:
            found[module.name] = sorted(unused)
    return found


def test_no_package_init_is_a_facade(analysis, tmp_path):
    """A name has one import path: the module that defines it.  Only the rule
    pack's ``__init__`` imports what it does not use (to register rules)."""
    assert list(_reexports(analysis.program)) == ["repro.analysis.rules"]
    package = tmp_path / "facade"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from repro.core.units import DataSize, Duration\nHOUR = Duration.hours(1)\n"
    )
    assert _reexports(Analysis.build([package]).program) == {"facade": ["DataSize"]}


def _unreached(program, roots=()):
    """Qualified definitions (``module.func``, ``module.Class``,
    ``module.Class.method``) that nothing reaches.  Roots: the ``roots``
    trees, the CLIs, and the module-level code of every module.  A reached
    function reaches what its body mentions; a reached class reaches its
    bases, its class-level code and the methods that ride with it (dunders,
    ``_private`` ones, a ``NodeVisitor``'s ``visit_*``); any other method or
    property waits until its class is reached *and* something reached reads
    its name as an attribute."""

    def module_names(tree):
        return {
            alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if f"{node.module}.{alias.name}" in program.modules
        }

    reached, pending = set(), {}
    for tree in roots:
        reached |= _mentions(tree, module_names(tree))
    for module in program.modules.values():
        modules = module_names(module.source.tree)
        for stmt in module.source.tree.body:
            is_definition = isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            if not is_definition or module.name.endswith("__main__"):
                reached |= _mentions(stmt, modules)
                continue
            key = (module.name.removeprefix("repro."), stmt.name)
            shell = [stmt]
            if isinstance(stmt, ast.ClassDef):
                visitor = any("NodeVisitor" in ast.unparse(base) for base in stmt.bases)
                waiting = [
                    item for item in stmt.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                    and not (visitor and item.name.startswith("visit_"))
                ]
                pending.update({(*key, item.name): _mentions(item, modules) for item in waiting})
                shell = [node for node in ast.iter_child_nodes(stmt) if node not in waiting]
            pending[key] = set().union(*(_mentions(node, modules) for node in shell))
            if any(isinstance(d, ast.Name) and d.id == "register" for d in stmt.decorator_list):
                reached.add(stmt.name)  # the rule registry holds it
    live = set()

    def is_reached(key):
        if len(key) == 2:
            return key[1] in reached
        return key[:2] in live and "." + key[2] in reached

    while newly := [key for key in pending if is_reached(key)]:
        live.update(newly)
        for key in newly:
            reached |= pending.pop(key)
    return {".".join(key) for key in pending}


def test_every_public_name_is_reached_or_inventoried(analysis, tmp_path):
    """The deletion audit, over the one program index: what ``examples/``,
    ``benchmarks/``, ``perfbench/``, the CLIs and module-level code do not
    reach is only its own tests' business, and is pinned."""
    roots = [
        ast.parse(path.read_text(encoding="utf-8"))
        for tree in ("examples", "benchmarks", "perfbench")
        for path in sorted((ROOT / tree).rglob("*.py"))
    ]
    assert _unreached(analysis.program, roots) == {
        name for names in ONLY_TESTS_REACH.values() for name in names.split()
    }
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "m.py").write_text(textwrap.dedent("""
        import ast

        def terabytes(n):
            return n

        class DataSize:
            def __init__(self):
                self._n = self._scale()
            def __len__(self):
                return self.dunder_only()
            def _scale(self):
                return 1
            @classmethod
            def terabytes(cls, n):
                return cls().helper()
            @property
            def gb(self):
                return self._n
            def helper(self):
                return 0
            def dunder_only(self):
                return 0
            def orphan(self):
                return self.orphans_friend()
            def orphans_friend(self):
                return self.orphan()
            def traced(self):
                return 0

        class Walker(ast.NodeVisitor):
            def visit_Name(self, node):
                return self.seen()
            def seen(self):
                return 0
            def unseen(self):
                return 0

        class Unused:
            def method(self):
                return 0
    """))
    program = Analysis.build([package]).program

    def unreached(root):
        return sorted(_unreached(program, [ast.parse(textwrap.dedent(root))]))

    # A method call does not vouch for the same-named function; a property
    # read, a dunder, a visitor hook and a boundary string reach methods; a
    # method only another unreached method mentions stays unreached.
    assert unreached("""
        from pkg.m import DataSize, Walker
        print(DataSize.terabytes(1).gb, len(DataSize()), Walker().visit(None))
        BOUNDARY = "pkg.m:DataSize.traced"
    """) == [
        "pkg.m.DataSize.orphan", "pkg.m.DataSize.orphans_friend", "pkg.m.Unused",
        "pkg.m.Unused.method", "pkg.m.Walker.unseen", "pkg.m.terabytes",
    ]
    # ... an import or an attribute of an imported module does.
    assert "pkg.m.terabytes" not in unreached("from pkg.m import terabytes")
    assert "pkg.m.terabytes" not in unreached("from pkg import m\nm.terabytes(1)")
    assert "pkg.m.terabytes" in unreached("import numpy as m\nm.terabytes(1)")


#: The functions in ``src/`` that change module-level state, by why each
#: may.  Anything else that does is state a run would inherit from what its
#: process ran before: an id numbered from a module counter, a default
#: installed for the whole process.  An owner numbers its own ids and keeps
#: its own bus instead.
PROCESS_STATE = {
    "the rule registry: the ``@register`` decorator fills it at import": """
        analysis.linter.register""",
    "the shared-memory segments this process created, so that an attachment "
    "made in the creator never drops the creator's tracker entry": """
        core.shards.SharedArray.copy_from core.shards.SharedArray.unlink""",
}


def _process_state(analysis):
    """Every function (``repro.`` dropped) with a ``global_mutation``
    effect of its own: a store into, an in-place change of, or ``next()``
    on a module-level binding."""
    return {
        qualname.removeprefix("repro.")
        for qualname, effects in analysis.effects.local.items()
        if any(effect.kind == "global_mutation" for effect in effects)
    }


def test_no_function_keeps_process_state_outside_the_inventory(analysis, tmp_path):
    assert _process_state(analysis) == {
        name for names in PROCESS_STATE.values() for name in names.split()
    }
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "m.py").write_text(textwrap.dedent("""
        import itertools

        _labels = itertools.count(1)
        _default = None

        def new_label():
            return f"tape-{next(_labels):05d}"

        def get_default():
            global _default
            if _default is None:
                _default = object()
            return _default

        class Library:
            def __init__(self):
                self._cartridges = []

            def new_label(self):
                return f"tape-{len(self._cartridges) + 1:05d}"
    """))
    assert _process_state(Analysis.build([package])) == {
        "pkg.m.new_label", "pkg.m.get_default",
    }


#: The scopes in ``src/`` that build a ``MetricsRegistry``: the bus's own
#: (the pins fold it, perfbench reads it) and the stage cache's fallback.
#: A component keeps its books in the stats dataclass it declares.
REGISTRY_BUILDERS = {
    "core.telemetry.Telemetry.__init__", "core.stagecache.StageCache.__init__",
}


def _registry_builders(program, registry="repro.core.telemetry.MetricsRegistry"):
    """Every scope (``repro.`` dropped) that calls ``registry``: a function
    with a call edge to its ``__init__``, or a module whose code outside
    any function calls it by an imported name or its own."""
    found = {
        caller for caller, callees in program.edges.items()
        if f"{registry}.__init__" in callees
    }
    for module in program.modules.values():
        stack = list(module.source.tree.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Call) and registry in (
                module.imports.resolve(node.func),
                module.classes_by_name.get(getattr(node.func, "id", "")),
            ):
                found.add(module.name)
    return {name.removeprefix("repro.") for name in found}


def test_no_component_builds_a_private_registry(analysis, tmp_path):
    assert _registry_builders(analysis.program) == REGISTRY_BUILDERS
    tree = {
        "__init__.py": "",
        "core/__init__.py": "",
        "core/telemetry.py": textwrap.dedent("""\
            class MetricsRegistry:
                def __init__(self):
                    self.instruments = {}

            class Telemetry:
                def __init__(self):
                    self.registry = MetricsRegistry()
        """),
        "lane.py": textwrap.dedent("""\
            from repro.core import telemetry
            from repro.core.telemetry import MetricsRegistry as Books

            DEFAULT = telemetry.MetricsRegistry()

            class Lane:
                def __init__(self):
                    self.metrics = Books()

                def books(self):
                    return self.metrics
        """),
    }
    for name, text in tree.items():
        path = tmp_path / "repro" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert _registry_builders(Analysis.build([tmp_path / "repro"]).program) == {
        "core.telemetry.Telemetry.__init__", "lane", "lane.Lane.__init__",
    }
