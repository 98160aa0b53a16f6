"""Tests for the NVO VOTable export, its parser and the cross-match."""

import math

import pytest

from repro.arecibo.candidates import SiftedCandidate
from repro.arecibo.metaanalysis import CandidateDatabase
from repro.arecibo.nvo import cross_match, export_votable, parse_votable
from repro.core.errors import SearchError


def populated_db():
    db = CandidateDatabase(version="search_v2")
    candidates = [
        SiftedCandidate(period_s=0.0327, freq_hz=30.58, snr=22.0, dm=26.0,
                        n_harmonics=2, n_dm_hits=40, pointing_id=1, beam=1),
        SiftedCandidate(period_s=0.1470, freq_hz=6.80, snr=17.0, dm=13.5,
                        n_harmonics=1, n_dm_hits=80, pointing_id=3, beam=5),
        SiftedCandidate(period_s=0.1234, freq_hz=8.10, snr=12.0, dm=0.2,
                        n_harmonics=1, n_dm_hits=60, pointing_id=0, beam=0),
    ]
    db.add_candidates(candidates)
    db.cull_widespread()  # 8.10 Hz at DM 0.2 -> terrestrial
    return db


class TestVotableExport:
    def test_round_trip(self, tmp_path):
        db = populated_db()
        path = tmp_path / "palfa.vot.xml"
        count = export_votable(db, path)
        db.close()
        assert count == 2  # only astrophysical rows published
        rows = parse_votable(path)
        assert len(rows) == 2
        by_freq = {round(row["freq_hz"], 2): row for row in rows}
        assert by_freq[30.58]["dm"] == pytest.approx(26.0)
        assert by_freq[30.58]["pointing_id"] == 1
        assert by_freq[30.58]["classification"] == "astrophysical"
        assert by_freq[30.58]["version"] == "search_v2"
        assert isinstance(by_freq[30.58]["name"], str)

    def test_export_all_classifications(self, tmp_path):
        db = populated_db()
        path = tmp_path / "all.vot.xml"
        count = export_votable(db, path, classification=None)
        db.close()
        assert count == 3

    def test_file_is_valid_xml_with_fields(self, tmp_path):
        import xml.etree.ElementTree as ET

        db = populated_db()
        path = tmp_path / "palfa.vot.xml"
        export_votable(db, path)
        db.close()
        root = ET.parse(path).getroot()
        assert root.tag == "VOTABLE"
        fields = root.findall("./RESOURCE/TABLE/FIELD")
        assert [f.get("name") for f in fields][:3] == ["name", "pointing_id", "beam"]
        assert {f.get("datatype") for f in fields} == {"char", "int", "double"}

    def test_parse_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_text("<NOTVOTABLE/>")
        with pytest.raises(SearchError, match="VOTABLE"):
            parse_votable(bad)
        malformed = tmp_path / "malformed.xml"
        malformed.write_text("<VOTABLE><unclosed>")
        with pytest.raises(SearchError, match="well-formed"):
            parse_votable(malformed)

    def test_parse_rejects_missing_table(self, tmp_path):
        path = tmp_path / "empty.xml"
        path.write_text("<VOTABLE><RESOURCE/></VOTABLE>")
        with pytest.raises(SearchError, match="TABLE"):
            parse_votable(path)

    def test_parse_names_the_cell_that_does_not_convert(self, tmp_path):
        path = tmp_path / "typo.xml"
        path.write_text(
            "<VOTABLE><RESOURCE><TABLE>"
            '<FIELD name="name" datatype="char"/>'
            '<FIELD name="beam" datatype="int"/>'
            "<DATA><TABLEDATA>"
            "<TR><TD>A</TD><TD>1</TD></TR>"
            "<TR><TD>B</TD><TD>abc</TD></TR>"
            "</TABLEDATA></DATA></TABLE></RESOURCE></VOTABLE>"
        )
        with pytest.raises(SearchError) as caught:
            parse_votable(path)
        message = str(caught.value)
        assert "typo.xml" in message
        assert "row 2" in message
        assert "'beam'" in message


class TestFederationBridge:
    def test_contribute_and_cross_match(self, tmp_path):
        db = populated_db()
        path = tmp_path / "palfa.vot.xml"
        export_votable(db, path)
        db.close()

        # Another survey's catalog shares one period.
        parkes = [{"name": "J1903", "period_s": 0.0327, "dm": 25.8}]
        matches = cross_match(
            parse_votable(path), parkes, on="period_s", tolerance=0.0005
        )
        assert len(matches) == 1
        left, right = matches[0]
        assert left["freq_hz"] == pytest.approx(30.58)
        assert right["name"] == "J1903"

    def test_empty_votable_rejected(self, tmp_path):
        db = CandidateDatabase()
        path = tmp_path / "empty.vot.xml"
        export_votable(db, path)
        db.close()
        parkes = [{"name": "J1903", "period_s": 0.0327, "dm": 25.8}]
        with pytest.raises(SearchError, match="no rows"):
            cross_match(parse_votable(path), parkes, on="period_s")


PALFA = [
    {"name": "PSR_A", "period_s": 0.1, "dm": 50.0},
    {"name": "PSR_B", "period_s": 0.25, "dm": 30.0},
]
PARKES = [
    {"name": "J0002", "period_s": 0.7, "dm": 12.0},
    {"name": "J0001", "period_s": 0.1001, "dm": 49.0},
    {"name": "J0003", "period_s": 0.0999, "dm": 51.0},
]


class TestCrossMatch:
    def test_pairs_within_tolerance_in_left_order(self):
        matches = cross_match(PALFA, PARKES, on="period_s", tolerance=0.001)
        assert [(left["name"], right["name"]) for left, right in matches] == [
            ("PSR_A", "J0003"),
            ("PSR_A", "J0001"),
        ]
        assert matches[0][0] is PALFA[0]

    def test_zero_tolerance_is_an_exact_match(self):
        exact = [{"name": "K", "period_s": 0.25, "dm": 1.0}]
        assert cross_match(PALFA, exact, on="period_s") == [(PALFA[1], exact[0])]
        assert cross_match(PALFA, PARKES, on="period_s") == []

    def test_column_either_side_lacks(self):
        with pytest.raises(SearchError, match="left rows have no column 'flux'"):
            cross_match(PALFA, PARKES, on="flux")
        with pytest.raises(SearchError, match="right rows have no column 'snr'"):
            cross_match([dict(row, snr=1.0) for row in PALFA], PARKES, on="snr")

    def test_inconsistent_rows(self):
        with pytest.raises(SearchError, match="left rows have inconsistent columns"):
            cross_match([{"a": 1}, {"b": 2}], PARKES, on="a")
        with pytest.raises(SearchError, match="right rows have inconsistent columns"):
            cross_match(PALFA, PARKES + [{"period_s": 0.3}], on="period_s")

    @pytest.mark.parametrize("value", ["PSR_C", None, math.nan, math.inf])
    def test_a_value_that_is_not_a_finite_number(self, value):
        bad = PALFA + [{"name": "PSR_C", "period_s": value, "dm": 1.0}]
        with pytest.raises(SearchError, match="left column 'period_s'"):
            cross_match(bad, PARKES, on="period_s")
        with pytest.raises(SearchError, match="right column 'period_s'"):
            cross_match(PARKES, bad, on="period_s")

    @pytest.mark.parametrize("tolerance", [-0.001, math.nan, math.inf])
    def test_bad_tolerance(self, tolerance):
        with pytest.raises(SearchError, match="tolerance"):
            cross_match(PALFA, PARKES, on="period_s", tolerance=tolerance)
