"""A preload killed partway through a page-store record: no torn page.

``PageStore.put`` appends one record (digest ‖ length ‖ content) to the
pack with one ``write``.  A process SIGKILLed inside that write leaves a
record whose header or content runs past the end of the file.  A store
reopened afterwards must not serve the partial content, the next ``put``
of that content must succeed, and rerunning the preload over the same
files must leave the pack byte-equal to a clean build's.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.errors import WebLabError
from repro.weblab.arcformat import pack_crawl
from repro.weblab.metadb import WebLabDatabase
from repro.weblab.pagestore import PageStore, content_hash
from repro.weblab.preload import PreloadSubsystem
from repro.weblab.synthweb import SyntheticWeb, SyntheticWebConfig

DIE_AT = 5  # the pack's fifth record is the one torn

# Counts the writes to the pack's descriptor; the DIE_AT-th lands only a
# prefix of its record (cut inside the 24-byte header or inside the
# content), saves the whole content for the test, and kills the writer.
WRITER = """
import json, os, signal, sys
from repro.weblab.metadb import WebLabDatabase
from repro.weblab.pagestore import PageStore
from repro.weblab.preload import PreloadSubsystem

pages, jobs, die_at, where, torn = sys.argv[1:]
store = PageStore(pages)
real_write = os.write
writes = 0

def dies_partway(fd, data):
    global writes
    if fd == store._fd:
        writes += 1
        if writes == int(die_at):
            with open(torn, "wb") as handle:
                handle.write(data[24:])
            cut = 10 if where == "header" else 24 + (len(data) - 24) // 2
            real_write(fd, data[:cut])
            os.kill(os.getpid(), signal.SIGKILL)
    return real_write(fd, data)

os.write = dies_partway
PreloadSubsystem(WebLabDatabase(), store).run([tuple(job) for job in json.loads(jobs)])
"""


@pytest.fixture(scope="module")
def arc_jobs(tmp_path_factory):
    incoming = tmp_path_factory.mktemp("incoming")
    web = SyntheticWeb(
        SyntheticWebConfig(seed=7, n_domains=4, initial_pages=20, new_pages_per_crawl=5)
    )
    return [
        (str(path), crawl.crawl_index)
        for crawl in web.generate_crawls(2)
        for path in pack_crawl(crawl.pages, incoming, f"crawl{crawl.crawl_index:02d}")
    ]


def preload(pages, jobs):
    store = PageStore(pages)
    try:
        PreloadSubsystem(WebLabDatabase(), store).run(jobs)
    finally:
        store.close()
    return store.path.read_bytes()


@pytest.mark.parametrize("where", ["header", "content"])
def test_a_writer_killed_mid_record_leaves_no_torn_page(tmp_path, arc_jobs, where):
    clean = preload(tmp_path / "clean", arc_jobs)
    pages = tmp_path / "pages"
    torn = tmp_path / "torn-content"

    src = Path(repro.__file__).resolve().parents[1]
    killed = subprocess.run(
        [sys.executable, "-c", WRITER, str(pages), json.dumps(arc_jobs),
         str(DIE_AT), where, str(torn)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    content = torn.read_bytes()
    digest = content_hash(content)

    store = PageStore(pages)
    pack = store.path.read_bytes()
    whole = store._scanned
    assert len(store) == DIE_AT - 1
    assert pack[:whole] == clean[:whole] and whole < len(pack) < whole + 24 + len(content)

    assert digest not in store
    with pytest.raises(WebLabError, match="page store has no content"):
        store.get(digest)

    assert store.put(content) == digest
    assert store.get(digest) == content
    store.close()
    reopened = PageStore(pages)
    assert reopened.get(digest) == content
    reopened.close()

    assert preload(pages, arc_jobs) == clean
