"""Transfer integrity edges: manifests, verify_delivery, damage model."""

import random

import pytest

from repro.core.errors import IntegrityError, TransportError
from repro.core.units import DataSize
from repro.storage.media import StoredFile, checksum_for
from repro.transport.integrity import (
    Manifest,
    damage_in_transit,
    verify_delivery,
)
from repro.transport.sneakernet import ShipmentSpec


def make_file(name, mb=10.0):
    size = DataSize.megabytes(mb)
    return StoredFile(name=name, size=size, checksum=checksum_for(name, size))


class TestDamageInTransitEdges:
    def test_zero_probabilities_deliver_everything_intact(self):
        files = [make_file(f"disk{i}") for i in range(8)]
        arrived = damage_in_transit(files, 0.0, 0.0, random.Random(1))
        assert [f.name for f in arrived] == [f.name for f in files]
        assert all(f.verify() for f in arrived)
        # Copies, not aliases: the originals stay pristine.
        assert arrived[0] is not files[0]

    def test_certain_loss_delivers_nothing(self):
        files = [make_file(f"disk{i}") for i in range(5)]
        assert damage_in_transit(files, 0.0, 1.0, random.Random(1)) == []

    def test_certain_corruption_damages_every_survivor(self):
        files = [make_file(f"disk{i}") for i in range(5)]
        arrived = damage_in_transit(files, 1.0, 0.0, random.Random(1))
        assert len(arrived) == 5
        assert all(not f.verify() for f in arrived)
        assert all(f.verify() for f in files)  # originals untouched

    @pytest.mark.parametrize("corruption,loss", [(-0.1, 0.0), (0.0, 1.1)])
    def test_out_of_range_probabilities_rejected(self, corruption, loss):
        with pytest.raises(IntegrityError):
            damage_in_transit([make_file("d")], corruption, loss, random.Random(1))


class TestVerifyDelivery:
    def test_all_failure_modes_coexist_in_one_report(self):
        listed = [make_file(f"disk{i}") for i in range(4)]
        manifest = Manifest.for_files("ship-1", listed)
        good = make_file("disk0")
        corrupt = make_file("disk1")
        corrupt.corrupt()
        stranger = make_file("stowaway")
        # disk2/disk3 never arrive.
        report = verify_delivery(manifest, [good, corrupt, stranger])
        assert report.delivered == ["disk0"]
        assert report.corrupt == ["disk1"]
        assert report.missing == ["disk2", "disk3"]
        assert report.unexpected == ["stowaway"]
        assert not report.clean
        # Retransmission covers corrupt + missing, never the stowaway.
        assert report.needs_retransmission() == ["disk1", "disk2", "disk3"]

    def test_checksum_mismatch_counts_as_corrupt(self):
        listed = make_file("disk0")
        manifest = Manifest.for_files("ship-2", [listed])
        impostor = StoredFile(
            name="disk0", size=listed.size, checksum="not-the-checksum"
        )
        report = verify_delivery(manifest, [impostor])
        assert report.corrupt == ["disk0"]

    def test_duplicate_delivery_rejected(self):
        manifest = Manifest.for_files("ship-3", [make_file("disk0")])
        with pytest.raises(IntegrityError, match="duplicate"):
            verify_delivery(manifest, [make_file("disk0"), make_file("disk0")])

    def test_manifest_rejects_duplicate_entries(self):
        manifest = Manifest.for_files("ship-4", [make_file("disk0")])
        with pytest.raises(IntegrityError, match="duplicate"):
            manifest.add(make_file("disk0"))


class TestShipmentSpecValidation:
    def base(self, **kwargs):
        defaults = dict(name="test-lane")
        defaults.update(kwargs)
        return ShipmentSpec(**defaults)

    def test_boundary_probabilities_are_legal(self):
        assert self.base(corruption_prob=0.0, loss_prob=0.0)
        assert self.base(corruption_prob=1.0, loss_prob=1.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("corruption_prob", -0.01),
            ("corruption_prob", 1.2),
            ("loss_prob", -1.0),
            ("loss_prob", 1.0001),
        ],
    )
    def test_out_of_range_damage_probabilities_fail_fast(self, field, value):
        with pytest.raises(TransportError, match=field):
            self.base(**{field: value})

    def test_error_message_names_the_lane(self):
        with pytest.raises(TransportError, match="'bad-lane'"):
            self.base(name="bad-lane", corruption_prob=2.0)

    def test_structural_fields_still_validated(self):
        with pytest.raises(TransportError):
            self.base(copy_stations=0)
        with pytest.raises(TransportError):
            self.base(media_per_package=0)


class TestLaneFaultShims:
    """Injected lane faults ride the organic damage/retransmission path."""

    def spec(self):
        return ShipmentSpec(
            name="test-lane", corruption_prob=0.0, loss_prob=0.0
        )

    def make_lane(self, *fault_specs, seed=23):
        from repro.core.faults import FaultPlan
        from repro.transport.sneakernet import ShippingLane

        plan = FaultPlan(specs=tuple(fault_specs), seed=seed)
        return ShippingLane(
            self.spec(), rng=random.Random(7), faults=plan.arm()
        )

    def test_crash_aborts_before_any_state_mutates(self):
        from repro.core.errors import InjectedFault
        from repro.core.faults import FaultSpec

        lane = self.make_lane(
            FaultSpec(name="lost-courier", scope="lane", target="test-lane",
                      kind="crash", max_fires=1)
        )
        with pytest.raises(InjectedFault):
            lane.ship(DataSize.terabytes(1))
        assert lane.stats.attempts == 0  # no counter bumped
        # The retry ships cleanly: the transient fault was consumed.
        result = lane.ship(DataSize.terabytes(1))
        assert result.report.clean
        assert result.attempts == 1

    def test_injected_corruption_forces_a_retransmission(self):
        from repro.core.faults import FaultSpec

        lane = self.make_lane(
            FaultSpec(name="rough-handling", scope="lane", target="*",
                      kind="corrupt", max_fires=1, param=2.0)
        )
        result = lane.ship(DataSize.terabytes(1))
        # Two media corrupted on attempt 1 fail read-back verification, so
        # the manifest flags them and attempt 2 reships them clean.
        assert result.attempts == 2
        assert result.report.clean
        assert lane.stats.media_retransmitted == 2
        # Booked as damaged, not lost: the manifest check saw both copies.
        assert lane.stats.files_corrupt == 2
        assert lane.stats.files_missing == 0

    def test_injected_drop_forces_a_retransmission(self):
        from repro.core.faults import FaultSpec

        lane = self.make_lane(
            FaultSpec(name="lost-box", scope="lane", target="*",
                      kind="drop", max_fires=1)
        )
        result = lane.ship(DataSize.terabytes(1))
        assert result.attempts == 2
        assert result.report.clean
        assert lane.stats.files_missing == 1

    def test_injected_delay_stretches_the_shipment(self):
        from repro.core.faults import FaultSpec

        from repro.transport.sneakernet import ShippingLane

        clean = ShippingLane(self.spec(), rng=random.Random(7))
        baseline = clean.ship(DataSize.terabytes(1)).elapsed
        lane = self.make_lane(
            FaultSpec(name="customs", scope="lane", target="*",
                      kind="delay", param=86400.0, max_fires=1)
        )
        delayed = lane.ship(DataSize.terabytes(1)).elapsed
        assert delayed.seconds == pytest.approx(baseline.seconds + 86400.0)
