"""A writer killed partway through a store entry: the store is as it was.

``DiskCacheStore.write`` streams an entry into a temp file and renames it
into place.  A process SIGKILLed between the two leaves a partial temp
file that nothing cleans up.  The key must still read as its previous
value (or as a miss if it had none), the inventory must not count the
stray file, and the next write of the key must succeed.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.cachestore import DiskCacheStore

KEY = "e" * 64

# The entry's first part is large enough to reach the temp file before
# the second part's ``__reduce__`` kills the writer.
WRITER = """
import os, signal, sys
from repro.core.cachestore import DiskCacheStore

class KillsTheWriter:
    def __reduce__(self):
        os.kill(os.getpid(), signal.SIGKILL)

DiskCacheStore(sys.argv[1]).write(sys.argv[2], [bytes(1 << 20), KillsTheWriter()])
"""


def stray_temp_files(root):
    return [path for path in root.rglob("*") if path.suffix == ".tmp"]


@pytest.mark.parametrize(
    "previous", [{"value": "old"}, None], ids=["had-a-value", "had-none"]
)
def test_a_writer_killed_mid_write_leaves_the_previous_entry(tmp_path, previous):
    store = DiskCacheStore(tmp_path)
    if previous is not None:
        assert store.write(KEY, previous)
    before = store.stats()

    src = Path(repro.__file__).resolve().parents[1]
    killed = subprocess.run(
        [sys.executable, "-c", WRITER, str(tmp_path), KEY],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    strays = stray_temp_files(tmp_path)
    assert len(strays) == 1 and strays[0].stat().st_size >= 1 << 20

    for reader in (store, DiskCacheStore(tmp_path)):
        assert reader.read(KEY) == previous
        assert reader.keys() == ([KEY] if previous is not None else [])
        assert len(reader) == before["entries"]
        assert reader.stats() == before

    assert store.write(KEY, {"value": "new"}) is True
    assert DiskCacheStore(tmp_path).read(KEY) == {"value": "new"}
    assert stray_temp_files(tmp_path) == strays  # left alone, still uncounted
    assert len(store) == 1
