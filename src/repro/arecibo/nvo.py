"""National Virtual Observatory linkage.

"Web access to the database at the CTC includes linkage to the National
Virtual Observatory [...] Connecting the CTC database system with the NVO
requires particular XML-based protocols that have been developed by the
NVO Consortium.  We are currently developing tools that use these
protocols."

This module implements a VOTable-shaped XML export of the candidate
database (typed FIELD declarations + TABLEDATA rows), a parser for the
same, and :func:`cross_match` over the parsed rows and another
contributor's catalog — the query that "federating their data with other
data resources from the Astronomy community" makes possible.
"""

from __future__ import annotations

import bisect
import math
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.arecibo.metaanalysis import CandidateDatabase
from repro.core.errors import SearchError

# The exported columns, with VOTable datatypes.
_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("name", "char"),
    ("pointing_id", "int"),
    ("beam", "int"),
    ("period_s", "double"),
    ("freq_hz", "double"),
    ("dm", "double"),
    ("snr", "double"),
    ("classification", "char"),
    ("version", "char"),
)


def export_votable(
    database: CandidateDatabase,
    path: Union[str, Path],
    classification: Optional[str] = "astrophysical",
    resource_name: str = "PALFA candidates",
) -> int:
    """Write the candidate table as a VOTable-shaped XML file.

    Returns the number of rows exported.  By default only astrophysical
    (post-meta-analysis) candidates are published.
    """
    rows = database.strongest(limit=1_000_000, classification=classification)
    votable = ET.Element("VOTABLE", version="1.1")
    resource = ET.SubElement(votable, "RESOURCE", name=resource_name)
    table = ET.SubElement(resource, "TABLE", name="candidates")
    ET.SubElement(table, "DESCRIPTION").text = (
        "Pulsar candidates from the PALFA survey reproduction; "
        "classification per the cross-pointing meta-analysis."
    )
    for field_name, datatype in _FIELDS:
        ET.SubElement(table, "FIELD", name=field_name, datatype=datatype)
    data = ET.SubElement(table, "DATA")
    tabledata = ET.SubElement(data, "TABLEDATA")
    count = 0
    for row in rows:
        tr = ET.SubElement(tabledata, "TR")
        values = {
            "name": f"PALFA_P{row['pointing_id']:04d}B{row['beam']}"
                    f"F{row['freq_hz']:.3f}",
            "pointing_id": row["pointing_id"],
            "beam": row["beam"],
            "period_s": row["period_s"],
            "freq_hz": row["freq_hz"],
            "dm": row["dm"],
            "snr": row["snr"],
            "classification": row["classification"],
            "version": row["version"],
        }
        for field_name, _ in _FIELDS:
            ET.SubElement(tr, "TD").text = str(values[field_name])
        count += 1
    ET.ElementTree(votable).write(path, encoding="unicode",
                                  xml_declaration=True)
    return count


def parse_votable(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Read a VOTable-shaped file back into row dicts (typed per FIELD)."""
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        raise SearchError(f"{path}: not a well-formed VOTable: {exc}") from exc
    root = tree.getroot()
    if root.tag != "VOTABLE":
        raise SearchError(f"{path}: root element is {root.tag!r}, not VOTABLE")
    table = root.find("./RESOURCE/TABLE")
    if table is None:
        raise SearchError(f"{path}: no RESOURCE/TABLE element")
    fields = [
        (field.get("name"), field.get("datatype"))
        for field in table.findall("FIELD")
    ]
    if not fields:
        raise SearchError(f"{path}: table declares no FIELDs")

    def convert(value: str, datatype: str) -> object:
        if datatype == "int":
            return int(value)
        if datatype in ("double", "float"):
            return float(value)
        return value

    rows: List[Dict[str, object]] = []
    for number, tr in enumerate(table.findall("./DATA/TABLEDATA/TR"), start=1):
        cells = tr.findall("TD")
        if len(cells) != len(fields):
            raise SearchError(
                f"{path}: row has {len(cells)} cells for {len(fields)} fields"
            )
        row: Dict[str, object] = {}
        for (name, datatype), cell in zip(fields, cells):
            try:
                row[name] = convert(cell.text or "", datatype)
            except ValueError:
                raise SearchError(
                    f"{path}: row {number}: field {name!r}: "
                    f"{cell.text!r} is not a valid {datatype}"
                ) from None
        rows.append(row)
    return rows


Row = Mapping[str, object]


def cross_match(
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    on: str,
    tolerance: float = 0.0,
) -> List[Tuple[Row, Row]]:
    """Pair each left row with every right row whose ``on`` value lies
    within ``tolerance`` of its own, in left-row order.

    The astronomer's workflow once a catalog is federated: match the
    survey's candidate periods (or positions) from :func:`parse_votable`
    against another contributor's catalog.  Both sides are plain row
    lists; each must be non-empty, with the same columns in every row,
    ``on`` among them and a finite number in it.
    """
    if not math.isfinite(tolerance) or tolerance < 0:
        raise SearchError(
            f"cross-match tolerance must be finite and >= 0, got {tolerance}"
        )
    keys: List[List[float]] = []
    for side, rows in (("left", left_rows), ("right", right_rows)):
        if not rows:
            raise SearchError(f"cross-match: the {side} side has no rows")
        columns = set(rows[0])
        if any(set(row) != columns for row in rows):
            raise SearchError(f"cross-match: the {side} rows have inconsistent columns")
        if on not in columns:
            raise SearchError(f"cross-match: the {side} rows have no column {on!r}")
        try:
            values = [float(row[on]) for row in rows]  # type: ignore[arg-type]
        except (TypeError, ValueError):
            values = [math.nan]
        # Refuse a value that does not convert, and a NaN: it would fall
        # inside every tolerance window.
        if not all(map(math.isfinite, values)):
            raise SearchError(
                f"cross-match: the {side} column {on!r} holds a value "
                "that is not a finite number"
            )
        keys.append(values)
    left_keys, right_keys = keys
    order = sorted(range(len(right_rows)), key=right_keys.__getitem__)
    right = [right_rows[index] for index in order]
    sorted_keys = [right_keys[index] for index in order]
    matches: List[Tuple[Row, Row]] = []
    for row, value in zip(left_rows, left_keys):
        low = bisect.bisect_left(sorted_keys, value - tolerance)
        high = bisect.bisect_right(sorted_keys, value + tolerance)
        matches.extend((row, other) for other in right[low:high])
    return matches
