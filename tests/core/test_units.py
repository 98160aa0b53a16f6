"""Tests for the unit algebra in repro.core.units."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import UnitError
from repro.core.units import DataSize, Duration, Rate


class TestDataSize:
    def test_constructors_agree(self):
        assert DataSize.terabytes(1).bytes == 1e12
        assert DataSize.gigabytes(1000) == DataSize.terabytes(1)
        assert DataSize.megabytes(1).kb == 1000
        assert DataSize.petabytes(1).tb == 1000

    def test_parse(self):
        assert DataSize.parse("14 TB") == DataSize.terabytes(14)
        assert DataSize.parse("100MB") == DataSize.megabytes(100)
        assert DataSize.parse("1.5 pb") == DataSize.petabytes(1.5)
        assert DataSize.parse("544 tb") == DataSize.terabytes(544)

    def test_parse_rejects_garbage(self):
        with pytest.raises(UnitError):
            DataSize.parse("fourteen terabytes")
        with pytest.raises(UnitError):
            DataSize.parse("14 parsecs")

    def test_negative_rejected(self):
        with pytest.raises(UnitError):
            DataSize(-1.0)

    def test_nan_rejected(self):
        with pytest.raises(UnitError):
            DataSize(float("nan"))

    def test_add_sub(self):
        a = DataSize.gigabytes(10)
        b = DataSize.gigabytes(4)
        assert (a + b).gb == pytest.approx(14)
        assert (a - b).gb == pytest.approx(6)

    def test_sub_underflow_raises(self):
        with pytest.raises(UnitError):
            DataSize.gigabytes(1) - DataSize.gigabytes(2)

    def test_scale(self):
        assert (DataSize.terabytes(2) * 3).tb == pytest.approx(6)
        assert (0.5 * DataSize.terabytes(2)).tb == pytest.approx(1)
        assert (DataSize.terabytes(2) / 2).tb == pytest.approx(1)

    def test_size_over_size_is_ratio(self):
        assert DataSize.terabytes(1) / DataSize.gigabytes(100) == pytest.approx(10)

    def test_size_over_rate_is_duration(self):
        elapsed = DataSize.gigabytes(100) / Rate.megabytes_per_second(100)
        assert isinstance(elapsed, Duration)
        assert elapsed.seconds == pytest.approx(1000)

    def test_division_by_zero_raises(self):
        with pytest.raises(UnitError):
            DataSize.gigabytes(1) / DataSize.zero()
        with pytest.raises(UnitError):
            DataSize.gigabytes(1) / Rate.zero()
        with pytest.raises(UnitError):
            DataSize.gigabytes(1) / 0

    def test_str_picks_unit(self):
        assert str(DataSize.terabytes(14)) == "14.00 TB"
        assert str(DataSize.megabytes(100)) == "100.00 MB"
        assert str(DataSize.from_bytes(12)) == "12 B"

    def test_ordering_and_truthiness(self):
        assert DataSize.gigabytes(1) < DataSize.terabytes(1)
        assert not DataSize.zero()
        assert DataSize.from_bytes(1)


class TestDuration:
    def test_constructors(self):
        assert Duration.hours(3).seconds == 10800
        assert Duration.days(1).hours_ == 24
        assert Duration.parse("2 weeks").days_ == 14
        assert Duration.years(1).days_ == pytest.approx(365.25)
        assert Duration.minutes(45).seconds == 2700

    def test_parse(self):
        assert Duration.parse("3 hours") == Duration.hours(3)
        assert Duration.parse("45min") == Duration.minutes(45)
        assert Duration.parse("5 years") == Duration.years(5)

    def test_parse_rejects(self):
        with pytest.raises(UnitError):
            Duration.parse("three hours")
        with pytest.raises(UnitError):
            Duration.parse("5 furlongs")

    def test_arithmetic(self):
        assert (Duration.hours(1) + Duration.minutes(30)).minutes_ == pytest.approx(90)
        assert (Duration.hours(2) - Duration.hours(1)).hours_ == pytest.approx(1)
        assert (Duration.hours(2) * 2).hours_ == pytest.approx(4)
        assert Duration.hours(2) / Duration.hours(1) == pytest.approx(2)
        assert (Duration.hours(2) / 2).hours_ == pytest.approx(1)

    def test_negative_rejected(self):
        with pytest.raises(UnitError):
            Duration(-5)
        with pytest.raises(UnitError):
            Duration.hours(1) - Duration.hours(2)


class TestRate:
    def test_network_vs_storage_units(self):
        # 100 Mb/s is 12.5 MB/s -- the classic bits/bytes trap.
        link = Rate.megabits_per_second(100)
        assert link.mb_per_second == pytest.approx(12.5)
        assert Rate.gigabits_per_second(1).mb_per_second == pytest.approx(125)

    def test_gb_per_day(self):
        # The WebLab target: 250 GB/day.
        rate = Rate.per(DataSize.gigabytes(250), Duration.days(1))
        assert rate.gb_per_day == pytest.approx(250)
        assert rate.mb_per_second == pytest.approx(250e3 / 86400, rel=1e-6)

    def test_rate_times_duration_is_size(self):
        moved = Rate.megabits_per_second(100) * Duration.days(1)
        assert isinstance(moved, DataSize)
        assert moved.gb == pytest.approx(1080, rel=1e-3)

    def test_rate_per(self):
        rate = Rate.per(DataSize.terabytes(10), Duration.days(10))
        assert rate.gb_per_day == pytest.approx(1000)

    def test_rate_per_zero_duration_raises(self):
        with pytest.raises(UnitError):
            Rate.per(DataSize.terabytes(1), Duration.zero())

    def test_rate_arithmetic(self):
        a = Rate.megabytes_per_second(10)
        b = Rate.megabytes_per_second(5)
        assert (a + b).mb_per_second == pytest.approx(15)
        assert (a - b).mb_per_second == pytest.approx(5)
        assert (a * 2).mb_per_second == pytest.approx(20)
        assert a / b == pytest.approx(2)


# --- property-based checks on the algebra ---------------------------------

sizes = st.floats(min_value=0, max_value=1e18, allow_nan=False, allow_infinity=False)
positive_sizes = st.floats(min_value=1e-3, max_value=1e18)
positive_rates = st.floats(min_value=1e-3, max_value=1e12)
positive_durations = st.floats(min_value=1e-3, max_value=1e10)


@given(a=sizes, b=sizes)
def test_size_addition_commutes(a, b):
    assert DataSize(a) + DataSize(b) == DataSize(b) + DataSize(a)


@given(a=sizes, b=sizes)
def test_size_ordering_consistent_with_bytes(a, b):
    assert (DataSize(a) <= DataSize(b)) == (a <= b)


@given(size=positive_sizes, rate=positive_rates)
def test_size_rate_roundtrip(size, rate):
    """size / rate * rate recovers size (within float tolerance)."""
    elapsed = DataSize(size) / Rate(rate)
    recovered = Rate(rate) * elapsed
    assert math.isclose(recovered.bytes, size, rel_tol=1e-9)


@given(rate=positive_rates, seconds=positive_durations)
def test_rate_duration_roundtrip(rate, seconds):
    moved = Rate(rate) * Duration(seconds)
    assert math.isclose((moved / Rate(rate)).seconds, seconds, rel_tol=1e-9)


@given(a=sizes, b=sizes)
def test_size_sub_add_roundtrip(a, b):
    lo, hi = min(a, b), max(a, b)
    assert math.isclose(
        ((DataSize(hi) - DataSize(lo)) + DataSize(lo)).bytes, hi, rel_tol=1e-9, abs_tol=1e-9
    )
