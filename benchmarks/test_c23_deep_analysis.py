"""C23 — the analysis pass: graph size, pass cost, and what the
interprocedural rules catch that the one-module rules cannot.

Three tables:

* **Graph** — what ``Program.build`` + ``EffectMap.compute`` recover
  from ``src/repro``: modules, functions, call edges, cache/shard
  bindings.  If binding detection regresses, the deep rules silently
  check nothing; these floors make that loud.
* **Pass cost** — the one pass, split where it can be: reading, parsing
  and indexing every file into the call graph, the effect fixpoint, and
  all eight rules over the result — together the price the CI
  ``analysis`` job pays on every push.
* **Seeded bugs** — the acceptance demonstration: cross-function bugs
  planted in a synthetic tree are found by RPR101-104 while RPR001-004
  alone (``select=``) report nothing.
"""

import textwrap
import time

from pathlib import Path

from repro.analysis.callgraph import Program
from repro.analysis.effects import EffectMap
from repro.analysis.linter import Analysis, Linter, unsuppressed

MODULE_RULES = ["RPR001", "RPR002", "RPR003", "RPR004"]

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

# Each seeded tree hides the bug behind a function boundary: the config
# read, global mutation, or RNG draw is in a helper, the cache/shard
# registration in another function (or module) entirely.
SEEDED = {
    "RPR101": """
    def _threshold(config):
        return config.snr_threshold

    def search(items, config):
        return [i for i in items if i > _threshold(config)]

    def register(flow, config):
        flow.stage("search", lambda items: search(items, config),
                   cache_params={"seed": config.seed})
    """,
    "RPR102": """
    SEEN = {}

    def _record(key, value):
        SEEN[key] = value

    def shard_fn(task):
        _record(task.key, task.value)
        return task.value

    def driver(ctx, items):
        ctx.map_shards(shard_fn, items)
    """,
    "RPR103": """
    import threading

    LOCK = threading.Lock()

    def shard_fn(task):
        with LOCK:
            return task

    def driver(ctx, items):
        ctx.map_shards(shard_fn, items)
    """,
    "RPR104": """
    import random

    def _jitter(value):
        # Locally suppressed — but RPR104 still sees the draw leaking
        # into a cached transform two calls away.
        return value + random.random()  # repro: noqa[RPR001]

    def process(items, config):
        return [_jitter(i) for i in items]

    def register(flow, config):
        flow.stage("process", lambda items: process(items, config),
                   cache_params={"seed": config.seed})
    """,
}


def test_c23_deep_analysis(report_rows, tmp_path):
    started = time.perf_counter()
    program = Program.build([SRC])
    build_seconds = time.perf_counter() - started

    started = time.perf_counter()
    analysis = Analysis(program=program, effects=EffectMap.compute(program))
    effects_seconds = time.perf_counter() - started

    started = time.perf_counter()
    findings = Linter().lint(analysis)
    rules_seconds = time.perf_counter() - started
    pass_seconds = build_seconds + effects_seconds + rules_seconds

    stats = analysis.stats()
    report_rows(
        "C23: whole-program graph over src/repro",
        [
            {"metric": key, "value": stats[key]}
            for key in sorted(stats)
        ],
    )
    # Floors, not exact pins: the graph must keep up with the tree (it shrank in PR 23).
    assert stats["modules"] >= 100
    assert stats["functions"] >= 1100
    assert stats["call_edges"] >= 850
    assert stats["cache_bindings"] >= 14
    assert stats["shard_bindings"] >= 3
    assert unsuppressed(findings) == []

    report_rows(
        "C23: analysis-pass cost",
        [
            {"pass": "parse + call graph", "wall_s": round(build_seconds, 3)},
            {"pass": "effect fixpoint", "wall_s": round(effects_seconds, 3)},
            {"pass": "eight rules", "wall_s": round(rules_seconds, 3)},
            {"pass": "the pass (sum)", "wall_s": round(pass_seconds, 3)},
        ],
    )
    assert pass_seconds < 30.0  # keeps the CI job honest

    rows = []
    for code, source in SEEDED.items():
        tree = tmp_path / code
        tree.mkdir()
        (tree / "m.py").write_text(textwrap.dedent(source), encoding="utf-8")
        analysis = Analysis.build([tree])
        module_only = unsuppressed(Linter(select=MODULE_RULES).lint(analysis))
        hits = [
            f for f in unsuppressed(Linter().lint(analysis)) if f.code == code
        ]
        rows.append(
            {
                "seeded_bug": code,
                "rpr001_004_findings": len(module_only),
                "all_rules_findings": len(hits),
            }
        )
    report_rows("C23: seeded cross-function bugs", rows)
    # The acceptance bar: every seeded bug is invisible to the one-module
    # rules and caught by exactly the intended interprocedural rule.
    assert all(row["rpr001_004_findings"] == 0 for row in rows)
    assert all(row["all_rules_findings"] == 1 for row in rows)
