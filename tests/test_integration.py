"""Cross-package integration tests.

Each test wires several subsystems together the way the examples and
benchmarks do, and checks the joints: engine + provenance store, storage +
transport + integrity.
"""

import pytest

from repro.core.dataflow import DataFlow
from repro.core.dataset import Dataset
from repro.core.engine import Engine
from repro.core.units import DataSize, Duration
from repro.storage.archive import LongTermArchive
from repro.storage.hsm import HierarchicalStore
from repro.storage.media import LTO3_TAPE, LTO5_TAPE
from repro.storage.tape import RoboticTapeLibrary
from repro.transport.sneakernet import ARECIBO_TO_CTC


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

        store = engine.provenance
        final = store.get(report.stage("stage2").provenance_id)
        (middle_id,) = final.parent_ids
        middle = store.get(middle_id)
        (first_id,) = middle.parent_ids
        assert [store.get(first_id).artifact, middle.artifact] == ["raw", "stage1"]
        # The accumulated stamp carries every step.
        assert len(final.stamp.history) == 3


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
