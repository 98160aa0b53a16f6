"""The ``python -m repro.ops`` command-line surface.

Contract under test: the three subcommands run against real logs, exit
codes encode operational state (status: red -> 1; alerts: active -> 1),
multiple logs merge into one view, reports are reproducible through the
CLI path, and failures exit 2 with a message on stderr.
"""

import json

import pytest

from repro.core.telemetry import write_event_log
from repro.ops.__main__ import main

from tests.ops.conftest import pipeline_bus


@pytest.fixture
def log(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    write_event_log(path, pipeline_bus(degraded_last=True,
                                       recalls=(420.0,)).events())
    return path


def test_report_writes_html_and_snapshot(log, tmp_path, capsys):
    out = tmp_path / "report.html"
    snapshot = tmp_path / "snap.json"
    code = main(["report", str(log), "--out", str(out),
                 "--snapshot", str(snapshot)])
    assert code == 0
    assert out.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")
    assert "panels" in json.loads(snapshot.read_text(encoding="utf-8"))
    captured = capsys.readouterr()
    assert "status: red" in captured.out


def test_report_is_reproducible_through_the_cli(log, tmp_path):
    first, second = tmp_path / "a.html", tmp_path / "b.html"
    assert main(["report", str(log), "--out", str(first)]) == 0
    assert main(["report", str(log), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_status_exit_code_tracks_overall_colour(log, tmp_path, capsys):
    assert main(["status", str(log)]) == 1  # degraded run is red
    captured = capsys.readouterr()
    assert "arecibo: red" in captured.out
    healthy = tmp_path / "healthy.jsonl"
    write_event_log(healthy, pipeline_bus(degraded_last=False).events())
    assert main(["status", str(healthy)]) == 0
    assert "overall:" in capsys.readouterr().out


def test_alerts_exit_code_tracks_active_alerts(log, capsys):
    assert main(["alerts", str(log)]) == 1
    captured = capsys.readouterr()
    assert "quality-red [arecibo]" in captured.out


def test_multiple_logs_merge_into_one_view(log, tmp_path, capsys):
    second = tmp_path / "second.jsonl"
    write_event_log(second, pipeline_bus(degraded_last=False).events())
    # Merging dilutes the one degraded stage across 8 finishes: the
    # single-log view is red (1/4 degraded), the merged view yellow (1/8).
    assert main(["status", str(log)]) == 1
    assert "arecibo: red" in capsys.readouterr().out
    assert main(["status", str(log), str(second)]) == 0
    assert "arecibo: yellow" in capsys.readouterr().out


def test_cache_root_serves_repeat_reads(log, tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["status", str(log), "--cache-root", str(cache)]) == 1
    first = capsys.readouterr().out
    assert any(cache.rglob("*.pkl"))
    assert main(["status", str(log), "--cache-root", str(cache)]) == 1
    assert capsys.readouterr().out == first


def test_missing_log_exits_2(tmp_path, capsys):
    code = main(["status", str(tmp_path / "nope.jsonl")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_corrupt_log_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text("{broken\n{\"also\": \"broken\"}\n", encoding="utf-8")
    assert main(["status", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["status", "alerts", "report"])
@pytest.mark.parametrize(
    "line, problem",
    [
        ("[1, 2]", "malformed telemetry record: expected an object"),
        ('{"seq": 1, "kind": "stage.start", "sim_time": 0.0}', "no 'name' key"),
        ('{"seq": 1, "kind": "k", "name": "n", "sim_time": 0, "attrs": 3}', "attrs is int"),
        ("{oops", "corrupt interior line"),
    ],
)
def test_wrong_shaped_line_is_one_error_line_and_exit_2(
    log, tmp_path, capsys, command, line, problem
):
    """Exit 1 means "a channel is red"; a log that cannot be read is exit 2."""
    lines = log.read_text(encoding="utf-8").splitlines()
    log.write_text("\n".join(lines[:2] + [line] + lines[2:]) + "\n", encoding="utf-8")
    assert main([command, str(log), "--cache-root", str(tmp_path / "cache")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {log}: line 3: ") and problem in err
    assert err.count("\n") == 1

