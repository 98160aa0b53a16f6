"""Tests for personnel and storage cost models, the cost ledger and datasets."""

import pytest

from repro.core.dataset import Dataset
from repro.core.resources import (
    DISK_COST_2005,
    TAPE_COST_2005,
    CostLedger,
    PersonnelModel,
    StorageCostModel,
)
from repro.core.units import DataSize, Duration


class TestCostModels:
    def test_tape_cheaper_than_disk_long_term(self):
        """The Petabyte-archive economics that drove CLEO/Arecibo to tape."""
        volume = DataSize.terabytes(90)
        decade = Duration.years(10)
        assert TAPE_COST_2005.retention_cost(volume, decade) < DISK_COST_2005.retention_cost(
            volume, decade
        )

    def test_purchase_and_retention(self):
        model = StorageCostModel("x", dollars_per_gb=1.0, upkeep_dollars_per_gb_year=0.1)
        assert model.purchase_cost(DataSize.gigabytes(100)) == pytest.approx(100)
        assert model.retention_cost(DataSize.gigabytes(100), Duration.years(2)) == pytest.approx(
            120
        )

    def test_personnel(self):
        model = PersonnelModel(hourly_cost=50)
        assert model.cost(Duration.hours(3)) == pytest.approx(150)


class TestCostLedger:
    def test_totals_by_category(self):
        ledger = CostLedger()
        ledger.charge("media", 100, "10 ATA disks")
        ledger.charge("media", 50)
        ledger.charge("personnel", 25)
        assert ledger.total() == pytest.approx(175)
        assert ledger.total("media") == pytest.approx(150)
        assert ledger.total("personnel") == pytest.approx(25)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            CostLedger().charge("media", -1)


class TestDataset:
    def test_requires_datasize(self):
        with pytest.raises(TypeError):
            Dataset("x", size=100)

    def test_requires_name(self):
        with pytest.raises(ValueError):
            Dataset("", DataSize.zero())

    def test_derive_inherits_version_and_attrs(self):
        parent = Dataset(
            "raw", DataSize.terabytes(1), version="v3", attrs={"pointings": 400}
        )
        child = parent.derive("products", DataSize.gigabytes(140), attrs={"stage": "search"})
        assert child.version == "v3"
        assert child.attrs == {"pointings": 400, "stage": "search"}
        assert parent.attrs == {"pointings": 400}

    def test_with_items(self):
        base = Dataset("x", DataSize.megabytes(1))
        loaded = base.with_items([1, 2, 3])
        assert loaded.item_count == 3
        assert base.item_count == 0

    def test_unique_ids(self):
        a = Dataset("x", DataSize.zero())
        b = Dataset("x", DataSize.zero())
        assert a.dataset_id != b.dataset_id
