"""Output checks trip, and failed operations are counted."""

from dataclasses import replace

from perfbench import workloads


def test_a_perturbed_seed_trips_the_determinism_digest(tiny, monkeypatch):
    class Drifting(workloads.Fig1Cold):
        def run_pass(self, index):
            if index == 1:
                self.config = replace(self.config, seed=self.config.seed + 1)
            return super().run_pass(index)

    monkeypatch.setitem(workloads.WORKLOADS, "fig1-cold", Drifting)
    result = tiny.run("fig1-cold", seed=11, seconds=0.2, trace=False, import_s=0.1)
    assert not result["correct"] and result["failed"] == 1


def test_a_handler_that_raises_is_counted_as_failed(tiny, monkeypatch):
    real = workloads.timed_handlers

    def flaky(services, as_of, latencies):
        handlers = real(services, as_of, latencies)
        browse = handlers["browse"]

        def failing(request):
            if request.seq % 10 == 0:
                raise RuntimeError("injected")
            return browse(request)

        return {**handlers, "browse": failing}

    monkeypatch.setattr(workloads, "timed_handlers", flaky)
    result = tiny.run("serve-hot", seed=11, seconds=0.1, trace=False, import_s=0.1)
    assert not result["correct"] and 0 < result["failed"] < result["attempted"]


def test_a_crashed_pass_fails_all_its_units(tiny, monkeypatch):
    class Crashing(workloads.EngineLanes):
        def run_pass(self, index):
            if index == 0:
                raise RuntimeError("injected")
            return super().run_pass(index)

    monkeypatch.setitem(workloads.WORKLOADS, "engine-lanes", Crashing)
    result = tiny.run("engine-lanes", seed=11, seconds=0.1, trace=False, import_s=0.1)
    stages = workloads.LANES * workloads.LANE_DEPTH + 1
    assert not result["correct"] and result["failed"] >= 4 * stages
