"""Incremental reruns of the figure pipelines: windowed arrival equals batch.

Contract under test, per flow: running the pipeline window-by-window as
inputs arrive (pointings for Figure 1, runs for Figure 2) against one
shared stage cache ends byte-identical — canonical telemetry, scores,
sizes — to a single cold batch run over the union.  The stage/shard
cache counters pin the cost side: each window recomputes only the
never-seen shards, and a zero-arrival window recomputes nothing at all.
On a shared on-disk store the same holds whatever happens to the store
or to staging: raw spectra live only in staging files, a window stages
what arrived once and stores only handles to it, and any one lost or torn
file — store entry or staging file — costs a recompute, never the result.
"""

import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.arecibo.filterbank import StagedBeam
from repro.arecibo.pipeline import (
    AreciboPipelineConfig,
    run_arecibo_incremental,
    run_arecibo_pipeline,
)
from repro.arecibo.sky import SkyModel
from repro.arecibo.telescope import ObservationConfig
from repro.cleo.pipeline import CleoPipelineConfig, run_cleo_incremental
from repro.core.errors import IncrementalError
from repro.core.shards import SHARE_MIN_BYTES
from repro.core.stagecache import StageCache
from repro.core.telemetry import Telemetry
from tests.conftest import fingerprint
from tests.test_pins import PINS

ARECIBO_STAGES = 6
CLEO_STAGES = 5


def arecibo_config(n_pointings=3):
    return AreciboPipelineConfig(
        n_pointings=n_pointings,
        observation=ObservationConfig(n_channels=32, n_samples=2048),
        sky=SkyModel(seed=3, pulsar_fraction=0.5, transient_rate=0.5),
        seed=11,
    )


class TestAreciboIncremental:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("fig1-inc")
        incremental = run_arecibo_incremental(
            workdir / "windows", arecibo_config(), arrivals=[1, 1, 0, 1]
        )
        cold = run_arecibo_pipeline(
            workdir / "batch", arecibo_config(), cache=StageCache()
        )
        return incremental, cold, workdir

    def test_final_window_equals_cold_batch(self, run):
        incremental, cold, workdir = run
        final = incremental.final
        assert fingerprint(final, workdir / "windows" / "window03") == fingerprint(
            cold, workdir / "batch"
        )
        assert final.confirmed == cold.confirmed
        # Shipment ids come from a process-global counter, so compare the
        # physical outcome, not the label.
        assert final.shipment.volume == cold.shipment.volume
        assert final.shipment.media_used == cold.shipment.media_used
        assert final.shipment.attempts == cold.shipment.attempts
        assert final.shipment.elapsed == cold.shipment.elapsed
        assert final.shipment.cost == cold.shipment.cost

    def test_windows_recompute_only_new_pointings(self, run):
        incremental = run[0]
        for window in incremental.windows:
            if window.new_pointings == 0:
                continue
            # acquire + process each recompute one shard per new pointing;
            # everything already seen is a shard hit.
            assert window.shard_misses == 2 * window.new_pointings
            assert window.shard_hits == 2 * (
                window.pointings_seen - window.new_pointings
            )

    def test_empty_window_is_all_hit(self, run):
        incremental = run[0]
        empty = incremental.windows[2]
        assert empty.new_pointings == 0
        assert empty.stage_hits == ARECIBO_STAGES
        assert empty.stage_misses == 0
        assert empty.shard_hits == 0 and empty.shard_misses == 0

    def test_every_window_is_accounted(self, run):
        incremental = run[0]
        assert incremental.ledger.windows == [
            (0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0),
        ]
        kinds = [
            event.kind
            for event in incremental.telemetry.events()
            if event.kind.startswith("window.")
        ]
        assert kinds == ["window.open", "window.close"] * 4

    def test_arrivals_must_cover_the_survey(self, tmp_path):
        with pytest.raises(IncrementalError, match="sum to"):
            run_arecibo_incremental(tmp_path, arecibo_config(), arrivals=[1, 1])
        with pytest.raises(IncrementalError, match="negative"):
            run_arecibo_incremental(
                tmp_path, arecibo_config(), arrivals=[4, -1]
            )

    def test_leading_empty_window_is_rejected_by_name(self, tmp_path):
        """Nothing to run over yet: refused up front, not a crash in `ship`."""
        with pytest.raises(IncrementalError, match="window 0 is empty"):
            run_arecibo_incremental(
                tmp_path, arecibo_config(n_pointings=1), arrivals=[0, 1]
            )
        assert list(tmp_path.iterdir()) == []

    def test_fractional_arrivals_are_not_truncated(self, tmp_path):
        with pytest.raises(IncrementalError, match="non-integral"):
            run_arecibo_incremental(
                tmp_path, arecibo_config(n_pointings=2), arrivals=[1.5, 1.5]
            )


def nightly_config(**changes):
    """Three pointings at the smallest observation the suite searches."""
    return replace(
        arecibo_config(),
        observation=ObservationConfig(n_channels=32, n_samples=512),
        **changes,
    )


def store_files(root):
    return sorted(root.glob("*/*.pkl"))


def load_store(root):
    """key -> the value every entry under ``root`` loads to."""
    cache = StageCache.on_disk(root)
    return {
        path.stem: cache.lookup_shard(path.stem) or cache.lookup(path.stem)
        for path in store_files(root)
    }


def staging_files(workdir):
    return sorted(workdir.glob("*/arecibo-staging/*"))


def same_value(left, right):
    """Structural equality that looks into arrays, compares staged beams
    by file name and file bytes (two runs stage into their own
    workdirs), and looks past the shipment record, labelled from a
    process-global counter (its physical outcome is pinned in
    ``TestAreciboIncremental``)."""
    if type(left) is not type(right):
        return False
    if isinstance(left, StagedBeam):
        left_path, right_path = Path(left.path), Path(right.path)
        return (
            left_path.name == right_path.name
            and replace(left, path="") == replace(right, path="")
            and left_path.read_bytes() == right_path.read_bytes()
        )
    if isinstance(left, np.ndarray):
        return left.dtype == right.dtype and np.array_equal(left, right)
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(
            key == "shipment" or same_value(left[key], right[key]) for key in left
        )
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(map(same_value, left, right))
    if hasattr(left, "__dict__"):
        return same_value(vars(left), vars(right))
    return left == right


def large_arrays(value, seen=None):
    """Every ndarray of at least ``SHARE_MIN_BYTES`` reachable from ``value``."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return [value] if value.nbytes >= SHARE_MIN_BYTES else []
    if isinstance(value, dict):
        children = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        children = list(value)
    elif hasattr(value, "__dict__"):
        children = list(vars(value).values())
    else:
        children = []
    return [found for child in children for found in large_arrays(child, seen)]


class TestAreciboNightlyStore:
    ARRIVALS = [1, 1, 0, 1]

    @pytest.fixture(scope="class")
    def night(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("fig1-nightly")
        cold = run_arecibo_pipeline(
            workdir / "batch", nightly_config(),
            cache=StageCache.on_disk(workdir / "batch-store"),
        )
        # Tally the store bytes each window writes, by the window open on
        # the ledger when the write lands.
        bus = Telemetry()
        cache = StageCache.on_disk(workdir / "store")
        written = [0] * len(self.ARRIVALS)
        write = cache.disk.write

        def tallied(key, entry):
            stored = write(key, entry)
            if stored:
                window = len(bus.events(kind="window.open")) - 1
                written[window] += cache.disk.path_for(key).stat().st_size
            return stored

        cache.disk.write = tallied
        nightly = run_arecibo_incremental(
            workdir / "windows", nightly_config(), arrivals=self.ARRIVALS,
            cache=cache, telemetry=bus,
        )
        cache.disk.write = write
        return workdir, cold, nightly, written, fingerprint(cold, workdir / "batch")

    def assert_equals_batch(self, report, workdir, night):
        assert fingerprint(report, workdir) == night[4]

    def test_a_window_writes_what_arrived_once(self, night):
        """Raw spectra are the volume and have one home, the staging file
        of the window they arrived in: a window stages what arrived and
        nothing it has seen, and the store keeps handles, not spectra
        (``test_no_array_hides_in_the_stash_or_the_store``)."""
        workdir, _, nightly, written, _ = night
        assert [w.new_pointings for w in nightly.windows] == self.ARRIVALS
        before = 0.0
        for window, store_bytes in zip(nightly.windows, written):
            arrived = window.report.raw_size.bytes - before
            before = window.report.raw_size.bytes
            staged = sum(
                path.stat().st_size
                for path in (
                    workdir / "windows" / f"window{window.index:02d}" / "arecibo-staging"
                ).iterdir()
            )
            assert staged <= 1.05 * arrived
            if window.new_pointings == 0:
                assert staged == 0 and store_bytes == 0
            else:
                assert staged >= arrived > 0 and store_bytes > 0
        # Nothing but whole beam files: one per arrived beam, no temp files.
        assert len(staging_files(workdir / "windows")) == 7 * sum(self.ARRIVALS)
        # One entry per stage of a window that ran (the empty one is all
        # hits), an observe and a search shard per pointing; none rewritten.
        entries = load_store(workdir / "store")
        full_windows = sum(1 for count in self.ARRIVALS if count)
        assert len(entries) == ARECIBO_STAGES * full_windows + 2 * sum(self.ARRIVALS)
        assert all(entry is not None for entry in entries.values())
        assert sum(written) == sum(
            path.stat().st_size for path in store_files(workdir / "store")
        )
        # The cold batch: one entry per stage, an observe and a search shard per pointing.
        assert len(store_files(workdir / "batch-store")) == ARECIBO_STAGES + 2 * sum(self.ARRIVALS)

    def test_no_array_hides_in_the_stash_or_the_store(self, night):
        workdir, cold = night[:2]
        stash = cold.flow_report.stashes["acquire"]
        beams = [beam for beams in stash["observations"].values() for beam in beams]
        assert len(beams) == 7 * sum(self.ARRIVALS)
        assert all(isinstance(beam, StagedBeam) for beam in beams)
        assert large_arrays(stash) == []
        for root in (workdir / "store", workdir / "batch-store"):
            entries = load_store(root)
            assert entries and all(entry is not None for entry in entries.values())
            assert large_arrays(entries) == []

    def test_restart_survives_any_one_lost_or_torn_file(self, night):
        """Each case damages one file — a store entry, or a staging file
        an entry names — and restarts on a copy of the whole store.  A
        damaged staging file is a miss of its pointing's observe shard,
        which stages the pointing again in the restart's workdir."""
        workdir = night[0]
        store = workdir / "store"
        cases = [("store", path.relative_to(store)) for path in store_files(store)]
        cases += [("staging", path) for path in staging_files(workdir / "windows")]
        for index, (kind, name) in enumerate(cases):
            for damage in ("lost", "torn"):
                case_store = workdir / f"store-{index}-{damage}"
                shutil.copytree(store, case_store)
                path = case_store / name if kind == "store" else name
                whole = path.read_bytes()
                if damage == "lost":
                    path.unlink()
                else:
                    path.write_bytes(whole[: len(whole) // 2])
                run_dir = workdir / f"restart-{index}-{damage}"
                cache = StageCache.on_disk(case_store)
                report = run_arecibo_pipeline(run_dir, nightly_config(), cache=cache)
                self.assert_equals_batch(report, run_dir, night)
                if kind == "staging":
                    assert (cache.shard_hits, cache.shard_misses) == (2, 1)
                    assert (run_dir / "arecibo-staging" / path.name).read_bytes() == whole
                    path.write_bytes(whole)  # the next case starts whole

    def test_process_farm_writes_the_serial_store(self, night):
        workdir = night[0]
        root = workdir / "process-store"
        run_arecibo_incremental(
            workdir / "process-windows",
            nightly_config(workers=2, executor="process"),
            arrivals=self.ARRIVALS, cache=StageCache.on_disk(root),
        )
        farmed = load_store(root)
        serial = load_store(workdir / "store")
        assert farmed.keys() == serial.keys()
        for key, entry in farmed.items():
            assert entry is not None
            assert same_value(entry, serial[key])
        # Every handle named a file of the farm's own run.
        beams = [
            value
            for entry in farmed.values()
            for value in getattr(entry, "value", [])
            if isinstance(value, StagedBeam)
        ]
        assert len(beams) == 7 * sum(self.ARRIVALS)
        assert all("process-windows" in beam.path for beam in beams)


class TestCleoIncremental:
    def test_final_window_equals_cold_batch(self, cleo_ledger):
        """The cold batch over the three runs is pinned."""
        incremental, workdir = cleo_ledger
        assert fingerprint(incremental.final, workdir / "window02") == PINS["fig2 seed 11"]

    def test_windows_reconstruct_only_appended_runs(self, cleo_ledger):
        incremental, _ = cleo_ledger
        for window in incremental.windows:
            if window.new_runs:
                assert window.shard_misses == window.new_runs
                assert window.shard_hits == window.runs_seen - window.new_runs
            else:
                assert window.stage_hits == CLEO_STAGES
                assert window.shard_hits == window.shard_misses == 0

    def test_first_window_is_all_miss_later_stages_rerun(self, cleo_ledger):
        """Appending a run changes every stage's input content, so stage
        hits only happen for zero-arrival windows — the savings here are
        shard-level.  Pin that so a cache-key regression (accidental
        stage hit on changed input) cannot slip through."""
        incremental, _ = cleo_ledger
        first = incremental.windows[0]
        assert first.stage_hits == 0
        assert first.stage_misses == CLEO_STAGES

    def test_every_window_is_accounted(self, cleo_ledger):
        incremental, _ = cleo_ledger
        assert [w for w, _ in incremental.ledger.windows] == [0, 1, 2]
        closes = [
            dict(event.attrs)
            for event in incremental.telemetry.events()
            if event.kind == "window.close"
        ]
        assert [attrs["runs"] for attrs in closes] == [1, 1, 3]

    def test_arrivals_must_cover_the_runs(self, tmp_path):
        with pytest.raises(IncrementalError, match="sum to"):
            run_cleo_incremental(
                tmp_path, CleoPipelineConfig(n_runs=3, seed=5), arrivals=[1]
            )

    def test_leading_empty_window_is_rejected_by_name(self, tmp_path):
        with pytest.raises(IncrementalError, match="window 0 is empty"):
            run_cleo_incremental(
                tmp_path, CleoPipelineConfig(n_runs=1), arrivals=[0, 1]
            )
        assert list(tmp_path.iterdir()) == []

    def test_fractional_arrivals_are_not_truncated(self, tmp_path):
        with pytest.raises(IncrementalError, match="non-integral"):
            run_cleo_incremental(
                tmp_path, CleoPipelineConfig(n_runs=2), arrivals=[1.5, 1.5]
            )
