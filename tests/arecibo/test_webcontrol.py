"""Tests for the Web-based survey console."""

import pytest

from repro.arecibo.pipeline import AreciboPipelineConfig
from repro.arecibo.sky import SkyModel
from repro.arecibo.telescope import ObservationConfig
from repro.arecibo.webcontrol import SurveyConsole
from repro.core.errors import SearchError


@pytest.fixture(scope="module")
def console(tmp_path_factory):
    console = SurveyConsole(tmp_path_factory.mktemp("console"))
    config = AreciboPipelineConfig(
        n_pointings=3,
        observation=ObservationConfig(n_channels=48, n_samples=4096),
        sky=SkyModel(seed=41, pulsar_fraction=0.6, binary_fraction=0.0,
                     period_range_s=(0.03, 0.12), snr_range=(15.0, 30.0)),
    )
    run_id = console.launch_run(config)
    return console, run_id


class TestConsole:
    def test_launch_and_report(self, console):
        console_obj, run_id = console
        assert run_id in console_obj.runs()
        report = console_obj.report(run_id)
        assert report.score.recall == 1.0
        with pytest.raises(SearchError):
            console_obj.report("run-9999")

    def test_group_candidates(self, console):
        console_obj, run_id = console
        groups = console_obj.group_candidates(run_id)
        assert groups
        # Groups are strongest-first, and members share a frequency bin.
        assert groups[0].best["snr"] >= groups[-1].best["snr"]
        for group in groups:
            for member in group.members:
                assert abs(member["freq_hz"] - group.freq_hz) <= 0.011 * member["freq_hz"]

    def test_uniqueness_test_on_known_signals(self, console):
        console_obj, run_id = console
        report = console_obj.report(run_id)
        # A confirmed pulsar is unique on the sky.
        confirmed = report.confirmed[0]
        verdict = console_obj.uniqueness_test(run_id, confirmed["freq_hz"])
        assert verdict["unique"]
        assert verdict["verdict"] == "astrophysical-like"
        with pytest.raises(SearchError):
            console_obj.uniqueness_test(run_id, 999.0, freq_tolerance=1e-6)

    def test_correlation_test_finds_recurring_rfi(self, console):
        console_obj, run_id = console
        recurring = console_obj.correlation_test(run_id)
        # The RFI environment recurs across pointings.
        assert recurring
        assert all(len(row["pointings"]) > 1 for row in recurring)

    def test_plot_data_for_confirmed_candidate(self, console):
        console_obj, run_id = console
        report = console_obj.report(run_id)
        confirmed = report.confirmed[0]
        data = console_obj.plot_data(
            run_id,
            confirmed["pointing_id"],
            confirmed["beam"],
            confirmed["period_s"],
            confirmed["dm"],
        )
        assert len(data["phase"]) == len(data["profile"]) == 32
        assert len(data["dm_trials"]) == len(data["dm_snr_curve"]) == 24
        assert data["profile_snr"] > 5
        # The DM curve peaks in the interior (a dispersed signal), and the
        # peak S/N beats the DM-0 end of the curve.
        curve = data["dm_snr_curve"]
        assert max(curve) > curve[0]

    def test_plot_data_validation(self, console):
        console_obj, run_id = console
        with pytest.raises(SearchError, match="pointing"):
            console_obj.plot_data(run_id, 999, 0, 0.1, 30.0)
        with pytest.raises(SearchError, match="beam"):
            console_obj.plot_data(run_id, 0, 99, 0.1, 30.0)
