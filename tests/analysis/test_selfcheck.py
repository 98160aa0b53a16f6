"""The codebase passes its own linter, and the figures pass flowcheck.

This is the PR's acceptance bar made executable: any future commit that
introduces an unseeded RNG, a stray wall-clock read, an unregistered
telemetry kind, hash-ordered accounting, or an undeclared cache
dependency fails the suite — not just the CI analysis job.
"""

import ast
import re
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
    # One allowlisted wall_time stamp, the preload's two perf counters
    # (C9's MB/s), and the workload replayer's five wall-latency probes
    # (C21's latency_s; reported in ReplayReport only — never on the bus).
    assert sites == [
        ("preload.py", "RPR002", "noqa"),
        ("preload.py", "RPR002", "noqa"),
        ("telemetry.py", "RPR002", "allowlist"),
        ("workload.py", "RPR002", "noqa"),
        ("workload.py", "RPR002", "noqa"),
        ("workload.py", "RPR002", "noqa"),
        ("workload.py", "RPR002", "noqa"),
        ("workload.py", "RPR002", "noqa"),
    ]
    counts = summary_counts(findings)
    assert counts["RPR002"] == {"flagged": 0, "suppressed": 8}


def test_figure_flows_pass_flowcheck():
    for flow, spec in figure_flows():
        issues = check_flow(flow, spec)
        assert issues == [], "\n".join(issue.render() for issue in issues)


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
        assert stats["cache_bindings"] >= 14
        assert stats["shard_bindings"] >= 4
        assert stats["call_edges"] >= 900
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
            "_pack_crawl_shard",
        } <= shard_fns


#: Public names that nothing but their own module or ``tests/`` mentions, by
#: why they stay.  ROADMAP item 3's worklist: a name leaves this table by
#: gaining a caller or by being deleted, never silently.
ONLY_TESTS_REACH = {
    "paper substrate (a section-2..5 model with no figure flow on top yet)": """
        arecibo.rfi.zero_dm_subtract
        cleo.calibration.degraded_calibration cleo.reconstruction.track_residual_bias
        core.resources.CpuPool core.versioning.GradeRegistry core.versioning.VersionId
        eventstore.scales.open_store storage.disk.DiskPool transport.network.Route
        transport.network.route weblab.subsets.drop_subset weblab.webgraph.bfs_with_cost""",
    "Figure-2 incremental mode and the resume driver: tier-1 is their only driver": """
        cleo.pipeline.CleoIncrementalReport cleo.pipeline.CleoWindowReport
        cleo.pipeline.run_cleo_incremental core.recovery.run_to_completion""",
    "reader of a format a flow writes: the round-trip oracle of its writer": """
        arecibo.filterbank.read_filterbank weblab.export.read_exported_metadata""",
    "builds the ``runs:A-B`` key that ``parse_run_key`` parses in production": """
        eventstore.model.run_range_key""",
}


def _mentions(tree):
    """Identifiers a syntax tree uses: names, attributes, imported names, and
    the ``module:Class.method`` strings of perfbench's boundary table."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[\w.]+:[\w.]+", node.value):
                found.update(re.findall(r"\w+", node.value))
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


def test_every_public_name_is_reached_or_inventoried(analysis):
    """A name scan over the one program index.  Roots: examples, benchmarks,
    perfbench, the CLIs, and the module-level code of every module; a
    reached definition reaches what its body mentions.  What is left is
    only its own tests' business."""
    reached, pending = set(), {}
    for tree in ("examples", "benchmarks", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            reached |= _mentions(ast.parse(path.read_text(encoding="utf-8")))
    for module in analysis.program.modules.values():
        is_cli = module.name.endswith("__main__")
        for stmt in module.source.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not is_cli:
                pending[module.name.removeprefix("repro."), stmt.name] = _mentions(stmt)
                if any(isinstance(d, ast.Name) and d.id == "register" for d in stmt.decorator_list):
                    reached.add(stmt.name)  # the rule registry holds it
            else:
                reached |= _mentions(stmt)
    while newly := [key for key in pending if key[1] in reached]:
        for key in newly:
            reached |= pending.pop(key)
    unreached = {f"{module}.{name}" for module, name in pending if not name.startswith("_")}
    assert unreached == {name for names in ONLY_TESTS_REACH.values() for name in names.split()}
