"""--compare verdicts and exit codes."""

import json

from perfbench import __main__ as front
from perfbench.compare import compare


def result_file(walls, workloads=("fig1-cold",)):
    return {"runs": [
        {"workload": workload, "result": {"metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": wall / 4.0, "unit": "s"},
        }}}
        for workload in workloads for wall in walls
    ]}


def verdicts(first, second):
    return {row["metric"]: row["verdict"] for row in compare(result_file(first), result_file(second))}


def test_steady_and_equal_is_ok():
    assert verdicts([2.00, 2.01, 2.02], [2.01, 2.02, 2.03]) == {"wall_s": "ok", "setup_s": "ok"}


def test_worse_than_the_bound_is_regressed():
    assert verdicts([2.00, 2.01, 2.02], [3.00, 3.01, 3.02])["wall_s"] == "regressed"
    assert verdicts([2.00, 2.01, 2.02], [3.00, 3.01, 3.02])["setup_s"] == "regressed"


def test_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    assert verdicts([2.0, 2.6, 3.2], [2.1, 2.7, 3.1])["wall_s"] == "unresolved"
    assert verdicts([2.0, 2.6, 3.2], [1.0, 1.1, 1.2])["wall_s"] == "ok"


def test_compare_exit_code_and_ledger(tmp_path, capsys):
    a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "ledger.json"
    a.write_text(json.dumps(result_file([2.00, 2.01, 2.02])))
    b.write_text(json.dumps(result_file([3.00, 3.01, 3.02])))
    assert front.main(["--compare", str(a), str(a)]) == 0
    assert front.main(["--compare", str(a), str(b), "--out", str(out)]) == 1
    ledger = json.loads(out.read_text())
    assert ledger["claim"] is None and len(ledger["sets"]) == 2
    assert "regressed" in capsys.readouterr().out


def test_a_workload_absent_from_the_second_file_is_missing_and_fails(tmp_path, capsys):
    both = result_file([2.00, 2.01, 2.02], workloads=("fig1-cold", "fig2-cold"))
    one = result_file([2.00, 2.01, 2.02])
    rows = compare(both, one)
    assert {(r["workload"], r["verdict"]) for r in rows} == {
        ("fig1-cold", "ok"), ("fig2-cold", "missing")}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(both))
    b.write_text(json.dumps(one))
    assert front.main(["--compare", str(a), str(b)]) == 1
    assert "missing" in capsys.readouterr().out
    assert front.main(["--compare", str(b), str(a)]) == 0
