"""The tracer wraps, attributes, and puts everything back."""

import sys

from repro.core.dataflow import DataFlow
from repro.core.dataset import Dataset
from repro.core.engine import Engine
from repro.core.units import DataSize

from perfbench.boundaries import BOUNDARIES
from perfbench.trace import Tracer, resolve


def namespaces():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if module is not None and (name == "repro" or name.startswith("repro."))
    }


def class_attributes():
    owners = {}
    for boundary in BOUNDARIES:
        owner, attr, raw = resolve(boundary.target)
        owners[boundary.target] = raw
    return owners


def tiny_flow():
    flow = DataFlow("t")
    flow.stage("a", lambda inputs, ctx: Dataset("a", DataSize.from_bytes(10.0), version="v"))
    flow.stage("b", lambda inputs, ctx: inputs["a"].derive("b", inputs["a"].size))
    flow.chain("a", "b")
    return flow


def test_install_rebinds_and_uninstall_restores_every_namespace():
    for boundary in BOUNDARIES:
        resolve(boundary.target)  # import everything first
    before_modules, before_classes = namespaces(), class_attributes()
    tracer = Tracer(BOUNDARIES)
    tracer.install()
    try:
        from repro.arecibo import pipeline
        from repro.core import kernels

        # (the package re-exports a *function* called dedisperse over the module)
        dedisperse = sys.modules["repro.arecibo.dedisperse"]

        # The from-import copy is rebound along with the defining module's name.
        assert dedisperse.shift_sum is kernels.shift_sum
        assert kernels.shift_sum is not before_modules["repro.core.kernels"]["shift_sum"]
        assert pipeline.run_arecibo_pipeline.__wrapped__ is (
            before_modules["repro.arecibo.pipeline"]["run_arecibo_pipeline"]
        )
        assert class_attributes() != before_classes
    finally:
        tracer.uninstall()
    assert namespaces() == before_modules
    assert class_attributes() == before_classes


def test_spans_nest_and_self_time_excludes_children():
    with Tracer(BOUNDARIES) as tracer:
        tracer.phase = 0
        Engine(seed=1).run(tiny_flow())
    spans = tracer.spans_named("engine.run", 0)
    assert len(spans) == 1 and spans[0].parent == 0 and spans[0].root == spans[0].sid
    children = [s for s in tracer.spans if s[1] == spans[0].sid]
    assert children and all(s[2] == spans[0].sid for s in children)
    totals = tracer.totals()
    run = totals["engine.run"]
    covered = sum(s[5] - s[4] for s in children)
    assert abs(run.self_time - (run.inclusive - covered)) < 1e-9
    assert totals["telemetry.emit"].calls > 0
    assert abs(tracer.root_seconds() - run.inclusive) < 1e-9
    assert tracer.layer_self_seconds()["engine"] >= run.self_time


def test_set_up_spans_are_kept_apart_from_pass_spans():
    with Tracer(BOUNDARIES) as tracer:
        Engine(seed=1).run(tiny_flow())  # phase defaults to set-up
        tracer.phase = 0
        Engine(seed=1).run(tiny_flow())
    assert tracer.totals(setup=True)["engine.run"].calls == 1
    assert tracer.totals()["engine.run"].calls == 1
