"""A run depends on its inputs, not on what its process ran before.

Every id is numbered by its owner: a library numbers its cartridges, an
archive its media, a provenance store its records.  So a second fresh
owner in one process hands out exactly the ids the first one did, and a
fresh interpreter hands out the same ones again.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.provenance import ProcessingStep, ProvenanceRecord, ProvenanceStore
from repro.core.units import DataSize
from repro.storage.archive import LongTermArchive
from repro.storage.hsm import HierarchicalStore
from repro.storage.media import LTO3_TAPE
from repro.storage.tape import RoboticTapeLibrary

ROOT = Path(__file__).resolve().parent.parent

#: What :func:`fresh_ids` reads in a fresh interpreter.
FRESH = {
    "library": ["lib-tape-00001", "lib-tape-00002"],
    "archive": ["arc-c0-0", "arc-c1-0"],
    "hsm": ["hsm-tape-00001", "hsm-tape-00002"],
    "provenance": ["prov-000001", "prov-000002"],
}


def fresh_ids():
    """The ids fresh owners give for the same few operations: the labels of
    the cartridges a library and an HSM fill (an LTO-3 cartridge holds one
    300 GB file), the media a dual-copy archive writes a file to, and the
    records of a two-step provenance chain."""
    library = RoboticTapeLibrary("lib", LTO3_TAPE)
    hsm = HierarchicalStore(RoboticTapeLibrary("hsm", LTO3_TAPE), DataSize.terabytes(1))
    for name in ("a", "b"):
        library.archive(name, DataSize.gigabytes(300))
        hsm.store(name, DataSize.gigabytes(300))
    archive = LongTermArchive("arc", LTO3_TAPE, copies=2)
    archive.ingest("f", DataSize.gigabytes(1))
    store = ProvenanceStore()
    raw = store.record("raw", ProcessingStep.create("daq", "v1"))
    recon = store.record("recon", ProcessingStep.create("recon", "v2"), parents=[raw.record_id])
    return {
        "library": [cartridge.label for cartridge in library._cartridges],
        "archive": sorted(r.medium_id for r in archive.catalog.entry("f").replicas),
        "hsm": [hsm.fail_cartridge(index).cartridge_label for index in (0, 1)],
        "provenance": [raw.record_id, recon.record_id],
    }


def test_a_second_owner_in_one_process_gives_the_first_ones_ids():
    assert fresh_ids() == fresh_ids() == FRESH


def test_a_fresh_interpreter_gives_the_same_ids():
    completed = subprocess.run(
        [sys.executable, "-c",
         "import json; from tests.test_process_state import fresh_ids; "
         "print(json.dumps(fresh_ids()))"],
        env={"PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])},
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout) == fresh_ids()


def test_a_provenance_record_takes_its_id_from_its_store():
    with pytest.raises(TypeError, match="record_id"):
        ProvenanceRecord(artifact="raw", step=ProcessingStep.create("daq", "v1"))
