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

from repro.analysis.flowcheck import check_flow, figure_flows
from repro.analysis.linter import Analysis, Linter, summary_counts, unsuppressed

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


@pytest.fixture(scope="module")
def analysis():
    """One pass over ``src/``, shared by every test below."""
    return Analysis.build([SRC])


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


def _thread_constructions(root):
    """``(path, line)`` of every ``Thread`` or ``ThreadPoolExecutor`` built
    under ``root``: a call of the attribute (``threading.Thread(...)``) or of
    a name imported from ``threading``/``concurrent.futures``, aliased or not."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        local = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module in ("threading", "concurrent.futures")
            for alias in node.names
            if alias.name in _THREAD_STARTERS
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr in _THREAD_STARTERS) or (
                isinstance(func, ast.Name) and func.id in local
            ):
                found.append((path.relative_to(root).as_posix(), node.lineno))
    return found


def test_only_kernel_tiles_start_threads(tmp_path):
    """``src/`` starts threads in one place, ``kernels.run_tiles``: the
    engine runs stages on one thread, shards run inline or in processes, and
    the WebLab preload loads its files on the calling thread."""
    sites = _thread_constructions(SRC)
    assert [path for path, _ in sites if path != "repro/core/kernels.py"] == []
    assert sites, "the scan no longer sees the kernel tile threads"
    (tmp_path / "pool.py").write_text(
        "from concurrent.futures import ThreadPoolExecutor as Pool\n"
        "import threading\n"
        "Pool(2)\n"
        "threading.Thread(target=print)\n"
    )
    assert _thread_constructions(tmp_path) == [("pool.py", 3), ("pool.py", 4)]


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
