"""Tests for manifests, shipment execution, and the transport planner."""

import random

import pytest

from repro.core.errors import IntegrityError, TransportError
from repro.core.units import DataSize, Duration
from repro.storage.media import StoredFile, checksum_for
from repro.transport.integrity import Manifest, damage_in_transit, verify_delivery
from repro.transport.network import ARECIBO_UPLINK, INTERNET2_100, NetworkLink
from repro.transport.planner import TransportPlanner, crossover_bandwidth
from repro.transport.sneakernet import ARECIBO_TO_CTC, ShipmentSpec, ShippingLane


def make_files(n, mb=100):
    files = []
    for index in range(n):
        name = f"file{index}"
        size = DataSize.megabytes(mb)
        files.append(StoredFile(name, size, checksum_for(name, size)))
    return files


class TestManifest:
    def test_build_and_totals(self):
        manifest = Manifest.for_files("s1", make_files(3))
        assert len(manifest) == 3
        assert manifest.total_size.gb == pytest.approx(0.3)
        assert manifest.names() == ["file0", "file1", "file2"]

    def test_duplicate_entry_rejected(self):
        files = make_files(1)
        manifest = Manifest.for_files("s1", files)
        with pytest.raises(IntegrityError):
            manifest.add(files[0])


class TestVerifyDelivery:
    def test_clean_delivery(self):
        files = make_files(3)
        manifest = Manifest.for_files("s1", files)
        report = verify_delivery(manifest, files)
        assert report.clean
        assert report.delivered == ["file0", "file1", "file2"]

    def test_missing_detected(self):
        files = make_files(3)
        manifest = Manifest.for_files("s1", files)
        report = verify_delivery(manifest, files[:2])
        assert report.missing == ["file2"]
        assert report.needs_retransmission() == ["file2"]

    def test_corruption_detected(self):
        files = make_files(2)
        manifest = Manifest.for_files("s1", files)
        files[0].corrupt()
        report = verify_delivery(manifest, files)
        assert report.corrupt == ["file0"]
        assert not report.clean

    def test_unexpected_detected(self):
        files = make_files(2)
        manifest = Manifest.for_files("s1", files[:1])
        report = verify_delivery(manifest, files)
        assert report.unexpected == ["file1"]

    def test_duplicate_delivery_rejected(self):
        files = make_files(1)
        manifest = Manifest.for_files("s1", files)
        with pytest.raises(IntegrityError):
            verify_delivery(manifest, files + files)


class TestDamageInTransit:
    def test_no_damage(self):
        files = make_files(10)
        arrived = damage_in_transit(files, 0.0, 0.0, random.Random(0))
        assert len(arrived) == 10
        assert all(f.verify() for f in arrived)

    def test_total_loss(self):
        arrived = damage_in_transit(make_files(10), 0.0, 1.0, random.Random(0))
        assert arrived == []

    def test_total_corruption(self):
        arrived = damage_in_transit(make_files(10), 1.0, 0.0, random.Random(0))
        assert len(arrived) == 10
        assert not any(f.verify() for f in arrived)

    def test_originals_untouched(self):
        files = make_files(5)
        damage_in_transit(files, 1.0, 0.0, random.Random(0))
        assert all(f.verify() for f in files)

    def test_invalid_probability_rejected(self):
        with pytest.raises(IntegrityError):
            damage_in_transit(make_files(1), 2.0, 0.0, random.Random(0))


class TestShipmentSpec:
    def test_media_needed(self):
        assert ARECIBO_TO_CTC.media_needed(DataSize.terabytes(14)) == 35
        assert ARECIBO_TO_CTC.media_needed(DataSize.gigabytes(1)) == 1

    def test_one_way_time_dominated_by_transit_for_small_loads(self):
        elapsed = ARECIBO_TO_CTC.one_way_time(DataSize.gigabytes(100))
        assert elapsed.days_ == pytest.approx(3, abs=0.5)

    def test_effective_throughput_scales_with_volume(self):
        """The classic sneakernet effect: bigger shipments, better rates."""
        small = ARECIBO_TO_CTC.effective_throughput(DataSize.gigabytes(400))
        large = ARECIBO_TO_CTC.effective_throughput(DataSize.terabytes(14))
        assert large.gb_per_day > small.gb_per_day

    def test_pipelined_beats_one_shot(self):
        volume = DataSize.terabytes(14)
        assert (
            ARECIBO_TO_CTC.pipelined_throughput(volume).gb_per_day
            > ARECIBO_TO_CTC.effective_throughput(volume).gb_per_day
        )

    def test_invalid_spec_rejected(self):
        with pytest.raises(TransportError):
            ShipmentSpec(name="bad", copy_stations=0)


class TestShippingLane:
    def test_clean_shipment(self):
        lane = ShippingLane(
            ShipmentSpec(name="test", corruption_prob=0.0, loss_prob=0.0),
            rng=random.Random(0),
        )
        result = lane.ship(DataSize.terabytes(1))
        assert result.attempts == 1
        assert result.report.clean
        assert result.media_used == 3
        assert result.cost > 0
        assert result.personnel_time.seconds > 0

    def test_damaged_shipment_retransmits(self):
        lane = ShippingLane(
            ShipmentSpec(name="flaky", corruption_prob=0.4, loss_prob=0.1),
            rng=random.Random(7),
        )
        result = lane.ship(DataSize.terabytes(4), max_attempts=10)
        assert result.report.clean
        assert result.attempts >= 2

    def test_hopeless_lane_gives_up(self):
        lane = ShippingLane(
            ShipmentSpec(name="doomed", corruption_prob=1.0), rng=random.Random(0)
        )
        with pytest.raises(TransportError, match="attempts"):
            lane.ship(DataSize.terabytes(1), max_attempts=2)

    def test_empty_volume_rejected(self):
        lane = ShippingLane(ShipmentSpec(name="x"))
        with pytest.raises(TransportError):
            lane.ship(DataSize.zero())

    def test_ledger_tracks_categories(self):
        lane = ShippingLane(
            ShipmentSpec(name="t", corruption_prob=0.0, loss_prob=0.0),
            rng=random.Random(0),
        )
        lane.ship(DataSize.terabytes(1))
        assert lane.ledger.total("shipping") > 0
        assert lane.ledger.total("personnel") > 0


class TestPlanner:
    def planner(self):
        return TransportPlanner(
            links=[ARECIBO_UPLINK, INTERNET2_100], lanes=[ARECIBO_TO_CTC]
        )

    def test_sneakernet_wins_at_arecibo_scale(self):
        """The paper's conclusion: disks beat the island uplink for 14 TB."""
        best = self.planner().fastest(DataSize.terabytes(14))
        assert best.mode == "sneakernet"

    def test_network_wins_for_small_volumes_on_fast_links(self):
        planner = TransportPlanner(links=[INTERNET2_100], lanes=[ARECIBO_TO_CTC])
        best = planner.fastest(DataSize.gigabytes(5))
        assert best.mode == "network"

    def test_evaluate_sorted_by_time(self):
        options = self.planner().evaluate(DataSize.terabytes(14))
        times = [option.elapsed.seconds for option in options]
        assert times == sorted(times)
        assert len(options) == 3

    def test_best_with_deadline_prefers_cheap_feasible(self):
        planner = self.planner()
        generous = planner.best(DataSize.terabytes(1), deadline=Duration.days(365))
        assert generous.cost == min(o.cost for o in planner.evaluate(DataSize.terabytes(1)))

    def test_empty_planner_rejected(self):
        with pytest.raises(TransportError):
            TransportPlanner()

    def test_zero_volume_rejected(self):
        with pytest.raises(TransportError):
            self.planner().evaluate(DataSize.zero())

    def test_crossover_bandwidth_brackets_decision(self):
        volume = DataSize.terabytes(14)
        crossover = crossover_bandwidth(volume, ARECIBO_TO_CTC)
        below = NetworkLink("below", crossover * 0.8, efficiency=0.8)
        above = NetworkLink("above", crossover * 1.2, efficiency=0.8)
        ship_time = ARECIBO_TO_CTC.one_way_time(volume).seconds
        assert below.transfer_time(volume).seconds > ship_time
        assert above.transfer_time(volume).seconds < ship_time

    def test_crossover_grows_with_volume(self):
        """Bigger payloads favour the truck: crossover moves up."""
        small = crossover_bandwidth(DataSize.terabytes(1), ARECIBO_TO_CTC)
        large = crossover_bandwidth(DataSize.terabytes(50), ARECIBO_TO_CTC)
        assert large.mbps > small.mbps

    def test_crossover_rejects_degenerate_tiny_volume(self):
        """A volume a trickle link beats has no lower bracket: the search
        must refuse instead of bisecting a bracket that never contained
        the answer."""
        with pytest.raises(TransportError, match="no crossover"):
            crossover_bandwidth(DataSize.megabytes(1), ARECIBO_TO_CTC)

    def test_crossover_rejects_nonpositive_shipment_time(self):
        class Teleporter(ShipmentSpec):
            def one_way_time(self, volume):
                return Duration(0.0)

        with pytest.raises(TransportError, match="positive"):
            crossover_bandwidth(DataSize.terabytes(1), Teleporter("teleporter"))
