"""Tests for network links and fair-share transfer simulation."""

import pytest

from repro.core.errors import TransportError
from repro.core.units import DataSize, Duration, Rate
from repro.transport.network import (
    ARECIBO_UPLINK,
    INTERNET2_100,
    INTERNET2_500,
    NetworkLink,
    TransferRequest,
    simulate_shared_transfers,
)


class TestNetworkLink:
    def test_effective_rate_applies_efficiency(self):
        link = NetworkLink("l", Rate.megabits_per_second(100), efficiency=0.8)
        assert link.effective.mbps == pytest.approx(80)

    def test_weblab_daily_volume_claim(self):
        """A dedicated 100 Mb/s link comfortably meets 250 GB/day."""
        assert INTERNET2_100.daily_volume().gb > 250
        assert INTERNET2_500.daily_volume().gb > 4 * INTERNET2_100.daily_volume().gb * 0.99

    def test_arecibo_uplink_infeasible_for_raw_data(self):
        """10 TB of session data takes weeks on the island uplink."""
        elapsed = ARECIBO_UPLINK.transfer_time(DataSize.terabytes(10))
        assert elapsed.days_ > 14

    def test_transfer_time_includes_latency(self):
        link = NetworkLink(
            "l", Rate.megabytes_per_second(8 / 0.7), latency=Duration.from_seconds(2),
            efficiency=0.7,
        )
        elapsed = link.transfer_time(DataSize.megabytes(8))
        assert elapsed.seconds == pytest.approx(3)

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(TransportError):
            NetworkLink("l", Rate.megabits_per_second(10), efficiency=0.0)
        with pytest.raises(TransportError):
            NetworkLink("l", Rate.megabits_per_second(10), efficiency=1.5)

    def test_zero_rate_rejected(self):
        with pytest.raises(TransportError):
            NetworkLink("l", Rate.zero())


class TestSharedTransfers:
    def link(self, mbytes_per_second=10):
        return NetworkLink(
            "shared",
            Rate.megabytes_per_second(mbytes_per_second),
            efficiency=1.0,
        )

    def test_single_transfer_full_rate(self):
        results = simulate_shared_transfers(
            self.link(10), [TransferRequest("a", DataSize.megabytes(100))]
        )
        assert results[0].elapsed.seconds == pytest.approx(10, abs=0.01)

    def test_two_concurrent_transfers_share_fairly(self):
        requests = [
            TransferRequest("a", DataSize.megabytes(100)),
            TransferRequest("b", DataSize.megabytes(100)),
        ]
        results = simulate_shared_transfers(self.link(10), requests)
        # Both get half the link: each takes ~20 s instead of 10.
        for result in results:
            assert result.elapsed.seconds == pytest.approx(20, abs=0.01)

    def test_late_arrival_shares_remaining(self):
        requests = [
            TransferRequest("bulk", DataSize.megabytes(200)),
            TransferRequest(
                "interactive",
                DataSize.megabytes(10),
                start=Duration.from_seconds(5),
            ),
        ]
        results = {r.name: r for r in simulate_shared_transfers(self.link(10), requests)}
        # Interactive flow runs at 5 MB/s while bulk is active: 2 s alone
        # would take 1 s; shared it takes ~2 s.
        assert results["interactive"].elapsed.seconds == pytest.approx(2, abs=0.05)
        # Bulk pays for the interference: 200 MB takes >20 s.
        assert results["bulk"].elapsed.seconds > 20

    def test_conservation_of_work(self):
        """Total bytes moved over makespan equals link capacity (saturated)."""
        requests = [
            TransferRequest(f"t{i}", DataSize.megabytes(50)) for i in range(4)
        ]
        results = simulate_shared_transfers(self.link(10), requests)
        makespan = max(r.finish.seconds for r in results)
        assert makespan == pytest.approx(200 / 10, abs=0.01)

    def test_duplicate_names_rejected(self):
        requests = [
            TransferRequest("a", DataSize.megabytes(1)),
            TransferRequest("a", DataSize.megabytes(1)),
        ]
        with pytest.raises(TransportError):
            simulate_shared_transfers(self.link(), requests)

    def test_empty_request_list(self):
        assert simulate_shared_transfers(self.link(), []) == []

    def test_idle_gap_between_arrivals(self):
        requests = [
            TransferRequest("a", DataSize.megabytes(10)),
            TransferRequest("b", DataSize.megabytes(10), start=Duration.from_seconds(100)),
        ]
        results = {r.name: r for r in simulate_shared_transfers(self.link(10), requests)}
        assert results["a"].finish.seconds == pytest.approx(1, abs=0.01)
        assert results["b"].finish.seconds == pytest.approx(101, abs=0.01)
