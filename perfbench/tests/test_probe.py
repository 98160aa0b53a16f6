"""Times are reported at reference speed, and the heap is left as it was found."""

import gc
import json
import statistics

import pytest

from perfbench import harness, probe

from .conftest import SteadyMeter


def test_each_kind_of_probe_reads_a_time_and_is_kept():
    meter = probe.SpeedMeter()
    readings = [meter.sample(kind) for kind in probe.KINDS]
    assert all(reading > 0 for reading in readings)
    assert meter.readings == list(zip(probe.KINDS, readings))


def test_the_slowest_round_of_a_probe_is_left_out(monkeypatch):
    ticks = iter(range(1000))
    stalls = iter([0.0] * 3 + [50.0] + [0.0] * 100)

    def part():
        next(ticks)

    clock_now = [0.0]

    def clock():
        clock_now[0] += 1.0
        return clock_now[0]

    def stalling():
        clock_now[0] += next(stalls)

    monkeypatch.setitem(probe.KINDS, "interpreter", (part, stalling))
    monkeypatch.setattr(probe.time, "perf_counter", clock)
    assert probe.probe("interpreter") == pytest.approx(probe.ROUNDS - 1)


def test_speed_factor_is_the_mean_of_the_two_probes_over_the_reference():
    reference = probe.REFERENCE["arrays"]
    assert probe.speed_factor(reference, reference, "arrays") == pytest.approx(1.0)
    assert probe.speed_factor(reference, 2 * reference, "arrays") == pytest.approx(1.5)


def test_every_workload_names_one_of_the_probes_speeds():
    from perfbench.workloads import WORKLOADS

    assert {cls.bound_by for cls in WORKLOADS.values()} == set(probe.KINDS)


@pytest.mark.parametrize("pace", [1.0, 1.6])
def test_a_slow_box_reports_the_times_of_the_reference_box(tiny, tmp_path, pace):
    detail = tmp_path / "detail.json"
    result = tiny.run("engine-lanes", seed=11, seconds=0.2, trace=False, import_s=0.1,
                      meter=SteadyMeter(pace), detail_path=detail)
    record = json.loads(detail.read_text(encoding="utf-8"))
    for measured in record["passes"]:
        assert measured["speed"] == pytest.approx(pace)
        assert measured["wall_s"] == pytest.approx(measured["raw_wall_s"] / pace)
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(
        statistics.median(p["raw_wall_s"] for p in record["passes"]) / pace)
    assert record["setups_s"] == pytest.approx([raw / pace for raw in record["raw_setups_s"]])
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(0.1 + record["setups_s"][0])


def test_settled_heap_freezes_for_the_timed_code_only():
    assert gc.get_freeze_count() == 0
    with harness.settled_heap():
        assert gc.get_freeze_count() > 0 and gc.isenabled()
    assert gc.get_freeze_count() == 0
    with pytest.raises(RuntimeError):
        with harness.settled_heap():
            raise RuntimeError("a crashed pass")
    assert gc.get_freeze_count() == 0
