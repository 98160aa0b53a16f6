"""Cross-package integration tests.

Each test wires several subsystems together the way the examples and
benchmarks do, and checks the joints: engine + provenance store, storage +
transport + integrity, EventStore + CLEO physics, WebLab + grid services.
"""

import runpy
from pathlib import Path

import pytest

from repro.core.dataflow import DataFlow
from repro.core.dataset import Dataset
from repro.core.engine import Engine
from repro.core.units import DataSize, Duration
from repro.grid.federation import Federation, tabular_resource
from repro.grid.movement import GridMover
from repro.grid.services import ServiceRegistry
from repro.storage.archive import LongTermArchive
from repro.storage.hsm import HierarchicalStore
from repro.storage.media import LTO3_TAPE, LTO5_TAPE
from repro.storage.tape import RoboticTapeLibrary
from repro.transport.network import INTERNET2_100
from repro.transport.planner import TransportPlanner
from repro.transport.sneakernet import ARECIBO_TO_CTC

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestEngineProvenanceIntegration:
    def test_flow_lineage_reaches_back_to_sources(self):
        flow = DataFlow("lineage")

        def source(inputs, ctx):
            return Dataset("raw", DataSize.gigabytes(1), version="v1")

        def derive(inputs, ctx):
            (only,) = inputs.values()
            return only.derive(ctx.stage.name, only.size / 2)

        flow.stage("raw", source)
        flow.stage("stage1", derive)
        flow.stage("stage2", derive)
        flow.chain("raw", "stage1", "stage2")
        engine = Engine()
        report = engine.run(flow)

        final_prov = report.stage("stage2").provenance_id
        chain = list(engine.provenance.ancestors(final_prov))
        assert {record.artifact for record in chain} == {"raw", "stage1"}
        # The accumulated stamp carries every step.
        assert len(engine.provenance.get(final_prov).stamp.history) == 3


class TestStorageTransportIntegration:
    def test_archive_hsm_and_shipping_share_a_volume(self, tmp_path):
        """Move a data block through shipment -> tape archive -> HSM reads."""
        from repro.transport.sneakernet import ShippingLane

        volume = DataSize.gigabytes(800)
        lane = ShippingLane(ARECIBO_TO_CTC)
        shipment = lane.ship(volume)
        assert shipment.report.clean

        library = RoboticTapeLibrary("ctc", LTO3_TAPE)
        hsm = HierarchicalStore(library, cache_capacity=DataSize.gigabytes(100))
        for index in range(8):
            hsm.store(f"block{index}", DataSize.gigabytes(100))
        # Read them all back: early blocks were evicted and need recalls.
        total_recall = Duration.zero()
        for index in range(8):
            _, elapsed = hsm.read(f"block{index}")
            total_recall += elapsed
        assert hsm.stats.misses > 0
        assert total_recall.seconds > 0
        assert library.stats.bytes_written == pytest.approx(800e9)

    def test_archive_generations_with_planner_costs(self):
        archive = LongTermArchive("deep", LTO3_TAPE, copies=2)
        for index in range(10):
            archive.ingest(f"f{index}", DataSize.gigabytes(100))
        archive.age(4.0)
        report = archive.migrate(LTO5_TAPE)
        assert report.files_moved == 10
        assert archive.media_count < 20  # denser media need fewer cartridges
        assert archive.ledger.total("personnel") > 0


class TestGridOverWeblabAndTransport:
    def test_registry_fronting_real_services(self, tmp_path):
        from repro.weblab.services import build_weblab
        from repro.weblab.subsets import SubsetCriteria
        from repro.weblab.synthweb import SyntheticWebConfig

        weblab, _, _ = build_weblab(tmp_path, SyntheticWebConfig(seed=4), n_crawls=3)
        registry = ServiceRegistry()
        registry.publish("weblab", "extract_subset", weblab.services.extract_subset)
        registry.publish("weblab", "graph_stats", weblab.services.graph_stats)

        count = registry.call(
            "weblab.extract_subset", "edu_view", SubsetCriteria(tlds=("edu",))
        )
        assert count > 0
        stats = registry.call("weblab.graph_stats", 2)
        assert stats.nodes > 0
        assert registry.usage() == {
            "weblab.extract_subset": 1,
            "weblab.graph_stats": 1,
        }
        weblab.close()

    def test_mover_routes_mixed_queue(self):
        planner = TransportPlanner(links=[INTERNET2_100], lanes=[ARECIBO_TO_CTC])
        mover = GridMover(planner)
        mover.submit("a", "b", DataSize.terabytes(30))
        mover.submit("c", "d", DataSize.gigabytes(2))
        mover.run_queue()
        modes = mover.modes_used()
        assert modes == {"sneakernet": 1, "network": 1}

    def test_federation_over_pipeline_output(self, tmp_path):
        """Federate real Arecibo pipeline candidates with a mock catalog."""
        from repro.arecibo.pipeline import AreciboPipelineConfig, run_arecibo_pipeline
        from repro.arecibo.sky import SkyModel
        from repro.arecibo.telescope import ObservationConfig

        config = AreciboPipelineConfig(
            n_pointings=2,
            observation=ObservationConfig(n_channels=32, n_samples=2048),
            sky=SkyModel(seed=44, pulsar_fraction=1.0, binary_fraction=0.0,
                         period_range_s=(0.03, 0.1), snr_range=(20.0, 30.0)),
        )
        report = run_arecibo_pipeline(tmp_path, config)
        rows = [
            {"name": f"cand{i}", "period_s": c["period_s"], "dm": c["dm"]}
            for i, c in enumerate(report.confirmed)
        ]
        if not rows:  # tiny config found nothing confirmable; still a pass
            pytest.skip("no confirmed candidates at this miniature scale")
        federation = Federation()
        federation.contribute(tabular_resource("palfa", rows))
        known = [{"name": "K1", "period_s": rows[0]["period_s"], "dm": rows[0]["dm"]}]
        federation.contribute(tabular_resource("known-pulsars", known))
        matches = federation.cross_match("palfa", "known-pulsars", on="period_s",
                                         tolerance=1e-6)
        assert matches


@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "transport_planning.py", "grid_federation.py"],
)
def test_fast_examples_run(script, capsys):
    """The lightweight example scripts execute end to end."""
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    output = capsys.readouterr().out
    assert len(output) > 200
