"""The declared benchmark and what a run prints agree, name for name."""

import json
import re
import subprocess
import sys

import pytest

from perfbench import manifest
from perfbench.boundaries import BOUNDARIES, LAYERS

from .conftest import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [name for name, _ in manifest.WORKLOADS]


def test_benchmark_json_is_the_manifest_rendered():
    assert (ROOT / "BENCHMARK.json").read_text(encoding="utf-8") == manifest.render()


def test_declared_shape_is_inside_the_contract_limits():
    declared = manifest.build()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(declared["workloads"]) <= 8
    assert [w["name"] for w in declared["workloads"]] == [
        name for name in WORKLOADS if name in manifest.GATED
    ] and set(manifest.GATED) <= set(WORKLOADS)
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in declared["end_to_end"])}]
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


def test_every_span_rule_names_a_boundary():
    spans = {boundary.span for boundary in BOUNDARIES}
    for name, _unit, _better, kind, argument in manifest.PER_LAYER:
        if kind == "extra":
            assert argument is None
        elif kind == "layer":
            assert argument in LAYERS, name
        elif argument.startswith("layer:"):
            assert argument[len("layer:"):] in LAYERS, name
        else:
            assert argument in spans, name


@pytest.fixture(scope="module")
def lit():
    """Per-layer metric names seen non-zero in some workload's traced run."""
    return set()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(tiny, workload):
    result = tiny.run(workload, seed=11, seconds=0.2, trace=False, import_s=0.1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {name: unit for name, unit, _, _ in manifest.END_TO_END}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(tiny, workload, lit):
    result = tiny.run(workload, seed=11, seconds=0.2, trace=True, import_s=0.1)
    assert result["correct"] and result["failed"] == 0
    declared = {name: unit for name, unit, _, _, _ in manifest.PER_LAYER}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(metric["value"] >= 0 for metric in result["metrics"].values())
    lit.update(name for name, metric in result["metrics"].items() if metric["value"] > 0)


def test_every_per_layer_metric_is_lit_by_some_workload(lit):
    if not lit:
        pytest.skip("runs after the traced workloads in one session")
    # Counts that are legitimately 0 on a healthy run (the Fig-1 shard
    # functions emit no events of their own, so none are forwarded).
    quiet = {"shards.shm_leaked", "readcache.negative_hits", "shards.forwarded_events"}
    dark = {name for name, *_ in manifest.PER_LAYER} - lit - quiet
    assert not dark


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    """Only BENCHMARK.json and perfbench/: nothing to measure, so no result line."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", "results"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig1-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode != 0 and done.stdout.strip() == ""


def test_result_line_is_the_last_line_and_has_exactly_the_four_keys(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "engine-lanes",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True,
    )
    assert done.returncode == 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
