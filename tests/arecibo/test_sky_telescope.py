"""Tests for the sky model, telescope simulator, and filterbank IO."""

import json
import pickle
import struct

import numpy as np
import pytest

from repro.arecibo import filterbank as filterbank_module
from repro.arecibo.filterbank import (
    Filterbank,
    StagedBeam,
    dispersion_delay_s,
    read_filterbank,
    write_filterbank,
)
from repro.arecibo.sky import N_BEAMS, Pointing, Pulsar, RFISource, SkyModel
from repro.arecibo.telescope import ObservationConfig, ObservationSimulator
from repro.core.errors import SearchError

from tests.arecibo.conftest import SMALL_CONFIG, single_pulsar_pointing


class TestSkyModel:
    def test_pulsar_validation(self):
        with pytest.raises(SearchError):
            Pulsar("p", period_s=0.0, dm=10, snr=10)
        with pytest.raises(SearchError):
            Pulsar("p", period_s=0.1, dm=-1, snr=10)
        with pytest.raises(SearchError):
            Pulsar("p", period_s=0.1, dm=10, snr=10, duty_cycle=0.7)

    def test_rfi_validation(self):
        with pytest.raises(SearchError):
            RFISource("r", kind="weird")
        with pytest.raises(SearchError):
            RFISource("r", kind="periodic")  # no period
        with pytest.raises(SearchError):
            RFISource("r", kind="narrowband")  # no channels

    def test_pointing_shape_validated(self):
        with pytest.raises(SearchError):
            Pointing(0, ((),), ((),) * N_BEAMS, ())

    def test_generate_pointings_reproducible(self):
        a = SkyModel(seed=5).generate_pointings(20)
        b = SkyModel(seed=5).generate_pointings(20)
        assert [p.all_pulsars() for p in a] == [p.all_pulsars() for p in b]

    def test_pulsar_fraction_respected(self):
        pointings = SkyModel(seed=5, pulsar_fraction=1.0).generate_pointings(10)
        assert all(len(p.all_pulsars()) == 1 for p in pointings)
        empty = SkyModel(seed=5, pulsar_fraction=0.0).generate_pointings(10)
        assert all(not p.all_pulsars() for p in empty)

    def test_binary_fraction(self):
        pointings = SkyModel(
            seed=5, pulsar_fraction=1.0, binary_fraction=1.0
        ).generate_pointings(10)
        assert all(p.all_pulsars()[0].accel_ms2 != 0.0 for p in pointings)

    def test_beam_of(self):
        model = SkyModel(seed=5, pulsar_fraction=1.0)
        pointing = model.generate_pointings(1)[0]
        pulsar = pointing.all_pulsars()[0]
        assert sum(pulsar in beam for beam in pointing.pulsars_by_beam) == 1

    def test_rfi_recurs_across_pointings(self):
        pointings = SkyModel(seed=5).generate_pointings(30)
        radar_hits = sum(
            1
            for pointing in pointings
            if any(source.name == "airport-radar" for source in pointing.rfi)
        )
        assert radar_hits > 15  # ~80% of 30


class TestDispersion:
    def test_delay_positive_toward_low_frequencies(self):
        freqs = np.array([1300.0, 1400.0, 1500.0])
        delays = dispersion_delay_s(50.0, freqs, ref_mhz=1500.0)
        assert delays[2] == pytest.approx(0.0)
        assert delays[0] > delays[1] > 0

    def test_delay_scales_linearly_with_dm(self):
        freqs = np.array([1300.0])
        one = dispersion_delay_s(1.0, freqs, 1500.0)[0]
        fifty = dispersion_delay_s(50.0, freqs, 1500.0)[0]
        assert fifty == pytest.approx(50 * one)

    def test_negative_dm_rejected(self):
        with pytest.raises(SearchError):
            dispersion_delay_s(-1.0, np.array([1400.0]), 1500.0)


class TestObservation:
    def test_seven_beams_produced(self, pulsar_observation):
        assert len(pulsar_observation) == N_BEAMS
        for beam_index, filterbank in enumerate(pulsar_observation):
            assert filterbank.beam == beam_index
            assert filterbank.n_channels == SMALL_CONFIG.n_channels
            assert filterbank.n_samples == SMALL_CONFIG.n_samples

    def test_pulsar_detectable_only_in_its_beam(self, pulsar_observation):
        from repro.arecibo.dedisperse import dedisperse
        from repro.arecibo.folding import fold

        snrs = [
            fold(dedisperse(fb, 50.0), fb.tsamp_s, 0.1).snr()
            for fb in pulsar_observation
        ]
        assert max(range(N_BEAMS), key=lambda i: snrs[i]) == 2
        assert snrs[2] > 3 * max(snr for i, snr in enumerate(snrs) if i != 2)

    def test_rfi_is_common_mode(self, bright_pulsar):
        rfi = RFISource("radar", kind="periodic", period_s=0.07, strength=100.0)
        pointing = single_pulsar_pointing(bright_pulsar, beam=2, rfi=[rfi])
        beams = ObservationSimulator(SMALL_CONFIG).observe(pointing, seed=3)
        # The zero-DM series of every beam carries the radar; correlation
        # between two pulsar-free beams is strong.
        series = [fb.data.mean(axis=0) for fb in beams]
        correlation = np.corrcoef(series[0], series[5])[0, 1]
        assert correlation > 0.3

    def test_noise_only_beams_are_uncorrelated(self, pulsar_observation):
        series = [fb.data.mean(axis=0) for fb in pulsar_observation]
        correlation = np.corrcoef(series[0], series[5])[0, 1]
        assert abs(correlation) < 0.1

    def test_observation_reproducible(self, bright_pulsar):
        simulator = ObservationSimulator(SMALL_CONFIG)
        pointing = single_pulsar_pointing(bright_pulsar)
        a = simulator.observe(pointing, seed=9)
        b = simulator.observe(pointing, seed=9)
        assert np.array_equal(a[2].data, b[2].data)

    def test_config_validation(self):
        with pytest.raises(SearchError):
            ObservationConfig(n_channels=1)
        with pytest.raises(SearchError):
            ObservationConfig(freq_low_mhz=1500, freq_high_mhz=1300)


class TestFilterbankIO:
    def test_round_trip(self, tmp_path, pulsar_observation):
        original = pulsar_observation[2]
        path = tmp_path / "beam2.fb"
        size = write_filterbank(path, original)
        assert size.bytes == path.stat().st_size
        loaded = read_filterbank(path)
        assert np.array_equal(loaded.data, original.data)
        assert loaded.beam == original.beam
        assert loaded.tsamp_s == original.tsamp_s
        assert loaded.freq_low_mhz == original.freq_low_mhz

    def test_bytes_match_the_tobytes_encoding(self, tmp_path, pulsar_observation):
        """The block is written from the array's buffer; the file is byte for
        byte what the header plus ``.tobytes()`` encoding wrote."""
        original = pulsar_observation[3]
        header = json.dumps(
            {
                "freq_low": original.freq_low_mhz,
                "freq_high": original.freq_high_mhz,
                "tsamp": original.tsamp_s,
                "pointing": original.pointing_id,
                "beam": original.beam,
                "channels": original.n_channels,
                "samples": original.n_samples,
            },
            sort_keys=True,
        ).encode("ascii")
        expected = (
            b"ALFAFB01" + struct.pack("<I", len(header)) + header
            + original.data.tobytes()
        )
        path = tmp_path / "beam3.fb"
        write_filterbank(path, original)
        assert path.read_bytes() == expected

    def test_read_maps_the_block_read_only(self, tmp_path, pulsar_observation):
        path = tmp_path / "beam.fb"
        write_filterbank(path, pulsar_observation[1])
        loaded = read_filterbank(path)
        assert isinstance(loaded.data.base, np.memmap)
        assert not loaded.data.flags.writeable
        with pytest.raises(ValueError):
            loaded.data[0, 0] = 1.0

    def test_a_write_that_raises_leaves_no_file(
        self, tmp_path, pulsar_observation, monkeypatch
    ):
        """Was: the bytes streamed to the final name, so a writer killed
        after the header left a torn file under it."""
        path = tmp_path / "beam.fb"

        def full_disk(_):
            raise OSError("no space left on device")

        # The header is written; the data block's buffer is not.
        monkeypatch.setattr(filterbank_module, "memoryview", full_disk, raising=False)
        with pytest.raises(OSError, match="no space"):
            write_filterbank(path, pulsar_observation[0])
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        size = write_filterbank(path, pulsar_observation[0])
        assert list(tmp_path.iterdir()) == [path]
        assert size.bytes == path.stat().st_size
        assert np.array_equal(read_filterbank(path).data, pulsar_observation[0].data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.fb"
        path.write_bytes(b"NOTAFILE" + b"\x00" * 64)
        with pytest.raises(SearchError, match="not a filterbank"):
            read_filterbank(path)

    def test_truncation_detected(self, tmp_path, pulsar_observation):
        path = tmp_path / "beam.fb"
        write_filterbank(path, pulsar_observation[0])
        data = path.read_bytes()
        path.write_bytes(data[:-100])
        with pytest.raises(SearchError, match="truncated"):
            read_filterbank(path)

    @pytest.mark.parametrize("kept", [8, 9, 11])
    def test_cut_inside_the_header_length(self, tmp_path, pulsar_observation, kept):
        """Was: struct.error ("unpack requires a buffer of 4 bytes")."""
        path = tmp_path / "beam.fb"
        write_filterbank(path, pulsar_observation[0])
        path.write_bytes(path.read_bytes()[:kept])
        with pytest.raises(SearchError, match="truncated filterbank header") as info:
            read_filterbank(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("missing", ["channels", "samples", "tsamp", "beam"])
    def test_header_missing_a_key(self, tmp_path, pulsar_observation, missing):
        """Was: a bare KeyError."""
        path = tmp_path / "beam.fb"
        write_filterbank(path, pulsar_observation[0])
        raw = path.read_bytes()
        (length,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12 : 12 + length])
        del header[missing]
        encoded = json.dumps(header).encode("ascii")
        path.write_bytes(
            raw[:8] + struct.pack("<I", len(encoded)) + encoded + raw[12 + length :]
        )
        with pytest.raises(SearchError, match=f"lacks '{missing}'") as info:
            read_filterbank(path)
        assert str(path) in str(info.value)

    def test_header_that_is_not_an_object(self, tmp_path):
        encoded = b"[1, 2]"
        path = tmp_path / "list.fb"
        path.write_bytes(b"ALFAFB01" + struct.pack("<I", len(encoded)) + encoded)
        with pytest.raises(SearchError, match="bad filterbank header"):
            read_filterbank(path)

    def test_staged_beam_names_the_file_it_wrote(self, tmp_path, pulsar_observation):
        original = pulsar_observation[4]
        path = tmp_path / "beam4.fb"
        handle = StagedBeam.stage(path, original)
        assert handle.file_size.bytes == path.stat().st_size
        assert handle.size == original.size
        assert (handle.beam, handle.pointing_id) == (original.beam, original.pointing_id)
        assert np.array_equal(handle.open().data, original.data)
        # Staging always writes what it was given, whatever the name held.
        write_filterbank(path, pulsar_observation[1])
        assert StagedBeam.stage(path, original) == handle
        assert np.array_equal(handle.open().data, original.data)
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("damage", ["lost", "torn", "other beam"])
    def test_a_staged_beam_whose_file_is_not_whole_fails_to_load(
        self, tmp_path, pulsar_observation, damage
    ):
        """What makes a cache entry naming the file a miss."""
        path = tmp_path / "beam.fb"
        handle = StagedBeam.stage(path, pulsar_observation[0])
        assert pickle.loads(pickle.dumps(handle)) == handle
        if damage == "lost":
            path.unlink()
        elif damage == "torn":
            path.write_bytes(path.read_bytes()[:-4])
        else:
            write_filterbank(path, pulsar_observation[1])
        with pytest.raises(SearchError, match=str(path)):
            pickle.loads(pickle.dumps(handle))
        StagedBeam.stage(path, pulsar_observation[0])  # staging heals it
        assert pickle.loads(pickle.dumps(handle)) == handle

    def test_filterbank_validation(self):
        with pytest.raises(SearchError):
            Filterbank(np.zeros(10, dtype=np.float32), 1300, 1500, 0.001)
        with pytest.raises(SearchError):
            Filterbank(np.zeros((4, 16), dtype=np.float32), 1500, 1300, 0.001)
        with pytest.raises(SearchError):
            Filterbank(np.zeros((4, 16), dtype=np.float32), 1300, 1500, 0.0)

    def test_channel_freqs_ascending_within_band(self, pulsar_observation):
        filterbank = pulsar_observation[0]
        freqs = filterbank.channel_freqs_mhz
        assert freqs[0] > filterbank.freq_low_mhz
        assert freqs[-1] < filterbank.freq_high_mhz
        assert np.all(np.diff(freqs) > 0)
