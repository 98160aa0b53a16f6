"""Tests for post-reconstruction, Monte Carlo, analysis, and the full flow."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import EventStoreError, SearchError
from repro.cleo.analysis import AnalysisJob, Histogram, SelectionCuts
from repro.cleo.calibration import perfect_calibration, true_misalignment
from repro.cleo.detector import Detector, DetectorConfig
from repro.cleo.montecarlo import MonteCarloProducer, produce_offsite_mc
from repro.cleo.pipeline import CleoPipelineConfig, run_cleo_pipeline
from repro.cleo.postrecon import POSTRECON_ASUS, PostReconstructor, RunStatistics
from repro.cleo.reconstruction import ASU_TRACKS, Reconstructor, tracks_of
from repro.eventstore.arrays import array_asu, asu_array
from repro.eventstore.merge import merge_into
from repro.eventstore.model import Event, run_key
from repro.eventstore.provenance import stamp_step
from repro.eventstore.scales import CollaborationEventStore, PersonalEventStore

from tests.cleo.conftest import oracle_derive_event


@pytest.fixture(scope="module")
def small_world():
    """One reconstructed run shared across tests in this module."""
    config = DetectorConfig()
    misalignment = true_misalignment(config.n_planes, 0.2, seed=1)
    detector = Detector(config, misalignment)
    recon = Reconstructor(config, perfect_calibration(misalignment, "cal_v1"), "TestRel")
    rng = np.random.default_rng(0)
    raw = [detector.generate_event(1, n, rng)[0] for n in range(40)]
    raw_stamp = stamp_step("DAQ", "daq_v3")
    recon_events, recon_stamp = recon.reconstruct_run(raw, raw_stamp)
    return {
        "detector": detector,
        "recon": recon,
        "raw": raw,
        "recon_events": recon_events,
        "recon_stamp": recon_stamp,
    }


class TestPostRecon:
    def test_dozen_asus_per_event(self, small_world):
        postrecon = PostReconstructor("A1")
        derived, stats, stamp = postrecon.process_run(
            1, small_world["recon_events"], small_world["recon_stamp"]
        )
        assert len(POSTRECON_ASUS) == 12
        assert all(len(event.asus) == 12 for event in derived)
        assert len(derived) == 40

    def test_run_statistics_feed_zscores(self, small_world):
        postrecon = PostReconstructor("A1")
        derived, stats, _ = postrecon.process_run(
            1, small_world["recon_events"], small_world["recon_stamp"]
        )
        zscores = np.array(
            [asu_array(event.asu("multiplicityZ"))[0] for event in derived]
        )
        # Z-scores against the run's own statistics are standardized.
        assert abs(float(zscores.mean())) < 0.2
        assert 0.5 < float(zscores.std()) < 1.5

    def test_depends_on_statistics_not_just_event(self, small_world):
        """The same event gets different post-recon values in different runs."""
        postrecon = PostReconstructor("A1")
        events, stamp = small_world["recon_events"], small_world["recon_stamp"]
        a = postrecon.process_run(1, events, stamp)[0][0]
        b = postrecon.process_run(1, events[:3], stamp)[0][0]
        assert asu_array(a.asu("multiplicityZ"))[0] != pytest.approx(
            asu_array(b.asu("multiplicityZ"))[0]
        )

    def test_stamp_chains_and_records_statistics(self, small_world):
        postrecon = PostReconstructor("A1")
        _, stats, stamp = postrecon.process_run(
            1, small_world["recon_events"], small_world["recon_stamp"]
        )
        assert len(stamp.history) == 3  # DAQ -> recon -> postrecon
        assert "meanMultiplicity" in stamp.history[-1]

    def test_process_run_equals_per_event_gather_and_derive(self, small_world):
        postrecon = PostReconstructor("A1")
        events = small_world["recon_events"]
        derived, stats, _ = postrecon.process_run(1, events, small_world["recon_stamp"])
        assert stats.n_events == len(events)
        assert derived == [oracle_derive_event(event, stats) for event in events]

    def test_empty_run_rejected(self, small_world):
        with pytest.raises(SearchError):
            PostReconstructor("A1").process_run(1, [], small_world["recon_stamp"])
        with pytest.raises(SearchError):
            PostReconstructor("")

    def test_an_event_with_no_tracks_is_refused_by_name(self, small_world):
        events = list(small_world["recon_events"])
        events[5] = Event(
            run_number=1, event_number=events[5].event_number,
            asus={ASU_TRACKS: array_asu(ASU_TRACKS, np.zeros((0, 3), np.float32))},
        )
        with pytest.raises(SearchError, match=f"run 1 event {events[5].event_number}:"):
            PostReconstructor("A1").process_run(1, events, small_world["recon_stamp"])


@given(
    n_tracks=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from([np.float32, np.float64]),
    degenerate=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_derive_event_equals_the_per_asu_oracle(n_tracks, seed, dtype, degenerate):
    """One float32 block sliced behind a shared header = twelve ``array_asu`` calls."""
    rng = np.random.default_rng(seed)
    tracks = rng.normal(0.0, 10.0, size=(n_tracks, 3))
    tracks[:, 2] = np.abs(tracks[:, 2])
    if degenerate:
        tracks[:] = tracks[0]  # zero spreads: eventShape divides by the 1e-6 floor
    event = Event(
        run_number=3, event_number=int(seed % 1000),
        asus={ASU_TRACKS: array_asu(ASU_TRACKS, tracks.astype(dtype))},
    )
    stats = RunStatistics(
        run_number=3, n_events=17,
        mean_multiplicity=float(rng.uniform(1, 12)),
        std_multiplicity=float(rng.uniform(1e-9, 4)),
        mean_chi2=float(rng.uniform(0, 5)),
        std_chi2=float(rng.uniform(1e-9, 2)),
    )
    derived = PostReconstructor("A1")._derive(event, tracks_of(event), stats)
    expected = oracle_derive_event(event, stats)
    assert list(derived.asus) == list(expected.asus) == list(POSTRECON_ASUS)
    assert derived == expected


class TestMonteCarlo:
    def test_mc_sized_to_run(self, small_world, tmp_path):
        detector = small_world["detector"]
        producer = MonteCarloProducer(detector, "Gen_03", events_per_data_event=0.5)
        run, _, _ = detector.generate_run(7, 0.0, seed=3, events_scale=0.0005)
        events, truths, stamp = producer.generate_for_run(run, seed=1)
        assert len(events) == max(1, int(run.event_count * 0.5))
        assert len(truths) == len(events)
        assert "MCGen" in stamp.history[0]

    def test_offsite_production_and_merge(self, small_world, tmp_path):
        detector = small_world["detector"]
        producer = MonteCarloProducer(detector, "Gen_03")
        run, _, _ = detector.generate_run(7, 0.0, seed=3, events_scale=0.0005)
        personal = produce_offsite_mc(producer, [run], tmp_path, site="remote-u")
        assert personal.scale == "personal"
        assert personal.file_count() == 1
        with CollaborationEventStore(tmp_path / "collab") as collab:
            report = merge_into(personal, collab)
            assert report.files_added == 1
            assert collab.open_file(7, "MC_Gen_03", "mc").event_count > 0
        personal.close()


class TestAnalysis:
    @pytest.fixture()
    def store_with_grade(self, tmp_path, small_world):
        store = PersonalEventStore(tmp_path / "store")
        recon = small_world["recon"]
        from tests.eventstore.conftest import make_run

        run = make_run(number=1, event_count=len(small_world["recon_events"]))
        store.inject(
            run,
            small_world["recon_events"],
            recon.version,
            "recon",
            small_world["recon_stamp"],
        )
        store.assign_grade("physics", 100.0, {run_key(1): recon.version})
        yield store
        store.close()

    def test_analysis_runs_and_selects(self, store_with_grade):
        job = AnalysisJob("test", store_with_grade, "physics", 150.0)
        result = job.run()
        assert result.events_read == 40
        assert 0 < result.events_selected <= 40
        assert result.histogram.total == result.events_selected
        assert 0 < result.efficiency <= 1

    def test_pinned_analysis_is_reproducible(self, store_with_grade):
        first = AnalysisJob("test", store_with_grade, "physics", 150.0).run()
        second = AnalysisJob("test", store_with_grade, "physics", 150.0).run()
        assert first.histogram.fingerprint() == second.histogram.fingerprint()
        assert first.stamp.matches(second.stamp)

    def test_refinement_tightens_and_chains(self, store_with_grade):
        job = AnalysisJob("test", store_with_grade, "physics", 150.0)
        first = job.run()
        refined = job.refine(first)
        second = refined.run()
        assert second.iteration == 2
        assert second.events_selected <= first.events_selected
        assert len(second.stamp.history) > len(first.stamp.history)

    def test_adopt_newer_data_moves_pin_forward_only(self, store_with_grade):
        job = AnalysisJob("test", store_with_grade, "physics", 150.0)
        later = job.adopt_newer_data(500.0)
        assert later.timestamp == 500.0
        with pytest.raises(EventStoreError):
            job.adopt_newer_data(10.0)

    def test_cuts_and_histogram_validation(self):
        cuts = SelectionCuts()
        tighter = cuts.tighten()
        assert tighter.max_mean_chi2 < cuts.max_mean_chi2
        with pytest.raises(EventStoreError):
            Histogram(low=1.0, high=1.0, bins=10)
        histogram = Histogram(low=0.0, high=10.0, bins=10)
        histogram.fill(-1)  # underflow ignored
        histogram.fill(10)  # overflow ignored
        histogram.fill(5)
        assert histogram.total == 1

    @pytest.mark.parametrize(
        "fields",
        [{"min_tracks": 0}, {"min_tracks": -1},
         {"max_mean_chi2": float("nan")}, {"max_mean_chi2": float("inf")},
         {"max_abs_slope": float("nan")}, {"max_abs_slope": float("-inf")}],
    )
    def test_cuts_refuse_an_empty_event_or_a_non_finite_cut(self, fields):
        with pytest.raises(EventStoreError):
            SelectionCuts(**fields)

    @pytest.mark.parametrize("low, high", [(float("nan"), 1.0), (0.0, float("nan")),
                                           (float("-inf"), 1.0), (0.0, float("inf"))])
    def test_histogram_refuses_non_finite_bounds(self, low, high):
        with pytest.raises(EventStoreError):
            Histogram(low=low, high=high, bins=10)

    def test_histogram_refuses_nan(self):
        histogram = Histogram(low=0.0, high=10.0, bins=10)
        with pytest.raises(EventStoreError):
            histogram.fill(float("nan"))
        histogram.fill(float("inf"))  # overflow, ignored like any value >= high
        histogram.fill(float("-inf"))
        assert histogram.total == 0

    def test_a_value_just_below_high_lands_in_the_last_bin(self):
        low, high = -9.669447289429417, -1.536558167665893
        histogram = Histogram(low=low, high=high, bins=21)
        histogram.fill(np.nextafter(high, -np.inf))
        assert histogram.counts[-1] == 1 and histogram.total == 1


class TestPipeline:
    def test_figure2_flow_end_to_end(self, tmp_path):
        config = CleoPipelineConfig(n_runs=2, events_scale=0.0003, seed=5)
        report = run_cleo_pipeline(tmp_path, config)
        # All four data kinds produced.
        assert set(report.sizes_by_kind) == {"raw", "recon", "postrecon", "mc"}
        assert all(size.bytes > 0 for size in report.sizes_by_kind.values())
        # Reconstruction condenses raw data; the analysis selected something.
        assert report.sizes_by_kind["recon"] < report.sizes_by_kind["raw"]
        assert report.analysis.events_selected > 0
        # The flow report covers the five Figure-2 stages.
        stage_names = {stage.name for stage in report.flow_report.stages}
        assert stage_names == {
            "acquisition",
            "reconstruction",
            "post-reconstruction",
            "monte-carlo",
            "physics-analysis",
        }
        # Projection lands in the tens-of-TB regime the paper reports
        # (">90 Terabytes" at full survey scale; order of magnitude is the
        # claim, since payload constants are synthetic).
        assert 10 < report.projected_total(full_runs=200_000).tb < 1000


    def test_store_operations_are_one_commit_each(self, tmp_path, write_log):
        """8 runs: 32 injections, 2 fresh schemas, 1 merge, 1 grade assignment.

        Every write rides an explicit transaction — none is its own
        autocommit — and each transaction is shorter than the merge the
        paper already accepts on the main repository.
        """
        config = CleoPipelineConfig(n_runs=8, events_scale=0.00005, seed=5)
        report = run_cleo_pipeline(tmp_path, config)
        assert report.analysis.events_read > 0
        assert write_log.autocommitted == []
        assert 30 <= write_log.commits <= 40
        # Reopening the finished store to replay the analysis writes nothing.
        before = write_log.write_transactions
        with CollaborationEventStore(report.store_root) as store:
            AnalysisJob("trackSpread", store, config.grade,
                        config.grade_timestamp + 1.0).run()
        assert write_log.write_transactions == before


class TestAccessProfileIntegration:
    def test_analyses_feed_the_partition_layout(self, tmp_path, small_world):
        """Recorded analysis working sets drive the hot/cold derivation."""
        from repro.eventstore.model import run_key
        from repro.eventstore.partition import AccessProfile, derive_layout
        from repro.eventstore.scales import PersonalEventStore
        from tests.eventstore.conftest import make_run

        store = PersonalEventStore(tmp_path / "store")
        recon = small_world["recon"]
        run = make_run(number=1, event_count=len(small_world["recon_events"]))
        store.inject(run, small_world["recon_events"], recon.version, "recon",
                     small_world["recon_stamp"])
        store.assign_grade("physics", 100.0, {run_key(1): recon.version})

        profile = AccessProfile()
        job = AnalysisJob("p", store, "physics", 150.0, access_profile=profile)
        first = job.run()
        job.refine(first).run()
        assert profile.analyses == 2
        layout = derive_layout(
            profile, ["tracks", "reconSummary"], hot_threshold=0.5,
            warm_threshold=0.1,
        )
        assert layout.temperature_of("tracks") == "hot"
        assert layout.temperature_of("reconSummary") == "cold"
        store.close()


class TestHsmBackedPipeline:
    def test_figure2_on_hsm_storage(self, tmp_path):
        """The whole Figure-2 flow with the collaboration store on HSM."""
        from repro.core.units import DataSize

        config = CleoPipelineConfig(
            n_runs=2, events_scale=0.0003, seed=5,
            use_hsm=True, hsm_cache=DataSize(200_000),
        )
        report = run_cleo_pipeline(tmp_path, config)
        assert report.analysis.events_selected > 0
        assert report.storage is not None
        # The analysis traffic went through the HSM: reads were served.
        assert report.storage["cache_hits"] + report.storage["tape_recalls"] > 0
        assert report.storage["cartridges"] >= 1

    def test_small_cache_forces_recalls(self, tmp_path):
        from repro.core.units import DataSize

        config = CleoPipelineConfig(
            n_runs=3, events_scale=0.0003, seed=5,
            use_hsm=True, hsm_cache=DataSize(150_000),
        )
        report = run_cleo_pipeline(tmp_path, config)
        big = CleoPipelineConfig(
            n_runs=3, events_scale=0.0003, seed=5,
            use_hsm=True, hsm_cache=DataSize.megabytes(50),
        )
        report_big = run_cleo_pipeline(tmp_path / "big", big)
        assert (
            report.storage["tape_recalls"] >= report_big.storage["tape_recalls"]
        )
