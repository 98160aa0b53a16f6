"""The same-bytes contract, pinned: the one file that holds its digests.

Each pin is the ``fingerprint`` (``tests/conftest.py``) of one recipe,
split into ``science`` (what the run found) and ``accounting``
(everything else it wrote).  The recipes are perfbench's: Figure 1 at
``fig1_config`` scale, cold, nightly and as a cached run; Figure 2 cold
and as the CLEO ledger; the engine alone on ``lanes_flow``; and the
WebLab build.  Other tests whose reference run is one of these recipes
compare against ``PINS`` instead of running the reference again.

A change that is not a declared re-pin keeps every value here.  A
declared re-pin replaces the entries it moves with the fingerprints the
failing assertions print, and says which group moved and why.
"""

import pytest

from perfbench.workloads import fig1_config, lanes_flow
from repro.arecibo.pipeline import run_arecibo_incremental, run_arecibo_pipeline
from repro.cleo.pipeline import CleoPipelineConfig, run_cleo_pipeline
from repro.core.engine import Engine
from repro.core.stagecache import StageCache
from repro.core.telemetry import EVENT_KINDS
from repro.weblab.services import build_weblab
from tests.conftest import digest, fingerprint

FIG1_PROVENANCE = "8b561979999d9b1927c0ac2ec705ef8527393f218d77e0528f659216138ff175"
FIG2_PROVENANCE = "fba57a6049e62ce76e3492a4c8161887b85a1a517f9536eb54c2583566eb3a6c"

PINS = {
    "fig1 seed 3": {
        "science": {
            "candidates": "3bf1a34217c277557fb8fb8e4413206153bc4a4a5260c1a54c66a36e7803e20f",
            "score": "d9a26fc5b65e91f6f4c281d484456705cb56065968597a93569f64120ee5ece3",
            "transients": "528acc5bf88285edb013430917cd34a5774f1a3fe72def00f337c082c875f35c",
            "volumes": "b60b91e46c5e3fe796c81ef162082716242fdab1b19a080acbad67d135caeef8",
        },
        "accounting": {
            "events": "9f94bf22ee9094e1c0717dcb025b43e7ffa7e9afd488ff3fedb42417accde1d4",
            "provenance": FIG1_PROVENANCE,
            "candidates.db": "d18f19a399d54d187d0dc577d9215a4934ee2d4ffd05cb686cb4b3f93dc82b04",
            "telemetry.jsonl": "9f94bf22ee9094e1c0717dcb025b43e7ffa7e9afd488ff3fedb42417accde1d4",
            "stage keys": "9b74836305a0057fa69f4d4f9dcdfadd416e56329b5bf3439f6107543d142ff7",
            "shard keys": "eaeb2a63098c55000178e7096fcf0db85806b1ef416a5106f9c93d5da1676a3a",
        },
    },
    "fig1 seed 11": {
        "science": {
            "candidates": "43c1e015f44cd68d2eddf578c39610d296537060ea605ebaccbaba86a35bf7a6",
            "score": "e5b431e4ee360001c5daf598ad44c55fc8e2ba072bf716a6f2632b4c37677e55",
            "transients": "199982e946d8e5ffbb6dbba05ce15f210e7eeb49b8bd30787c4626d519c63e77",
            "volumes": "905a8b40ab05b2e820b3c4d449642c973c6636367083a96d5aee4baf18eae425",
        },
        "accounting": {
            "events": "be9c0e05e5a2bb92bf46bf5c4f3b6f9f999d2920cf0e86eb9ed5219fb4e69bcf",
            "provenance": FIG1_PROVENANCE,
            "candidates.db": "7393ff8a6136fab1980dca6a53da80d1de64ce0547b1901bec2829bbfda8746b",
            "telemetry.jsonl": "be9c0e05e5a2bb92bf46bf5c4f3b6f9f999d2920cf0e86eb9ed5219fb4e69bcf",
            "stage keys": "8ad0a889e2b2f07f682d764a28714034bc7cbc33501c60d585b8c5ec2a28ce95",
            "shard keys": "eb65eb37a77464a1413c0f4a7fd5902eaa7630e0cacf9b8a62488811b789ac9e",
        },
    },
    "fig1 seed 12": {
        "science": {
            "candidates": "3d85bcd1b529c9387497c479b49a88ed97f70abcb6dbbada05abe60fe45af487",
            "score": "116ea8bf1008c2d44471e12dc2291710e9737c7b11be8eb3f38e6f19293f4785",
            "transients": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
            "volumes": "7ea322ae7251f0dc2a57512b46fc70f08c4373fe5bdba80c4a25dda113c8123d",
        },
        "accounting": {
            "events": "6d078ce2b927ef7b28140d18989a85e2f15892610f4d712fd765711d74b38b5e",
            "provenance": FIG1_PROVENANCE,
            "candidates.db": "fa8a29c5f8219603d53880bedc7445906ba60168e66b31e38e62404d94331919",
            "telemetry.jsonl": "6d078ce2b927ef7b28140d18989a85e2f15892610f4d712fd765711d74b38b5e",
            "stage keys": "ea161b28fed69d770da6f4c56c4bebbb7ace695c8644126f36a16478cf17a7e7",
            "shard keys": "0ba057726b380abb33007badf69a64406cfb59612c369788f6564c92d7be5115",
        },
    },
    "nightly seed 11": {
        "science": {
            "candidates": "3c9484e3d0961ea83577b136b6907f0632152ae5859194669db5687afc69f6f3",
            "score": "55529012dd99de42580ce7f8b909b82ad8d8d6fec24dc7f5409a0aea12723a64",
            "transients": "845a0c755cee31eec2d5394ba15cd9721a9533a55f600e6a15a6c0d892f8c0ec",
            "volumes": "576ef67169dcb385089bb7224cfe485d154bbf802b7013fca29e16593f3c5c1a",
        },
        "accounting": {
            "events": "899efc0b7e65509c7a12b6c9ca45efa8034ac7a0af50abc12b485a13da77fe3e",
            "provenance": FIG1_PROVENANCE,
            "ledger": "98f97dc13e2e45dc2ee095e570820306768175268ec05bceb3ed9dd7f900c865",
            "windows": "e03fcfa76db8b318d3ffb181fec7d747e8bf5d8cced9cf6808754a535c02091f",
        },
    },
    "nightly seed 12": {
        "science": {
            "candidates": "f5c6963204746fa55a62e3f92000ccbeedb0b1105609bcfc9ba2dc2130b99198",
            "score": "1d39b1af07b6638c9a153621748315d64cca006cd6efa8d62d365d998967b00a",
            "transients": "7844a4c780f9183510b29781e6f9edbedd20a86148c862fb2aa5404d230b2808",
            "volumes": "b1e519d39620680913167a92f96176aa3af456c8a369055640c7efe01bef32dc",
        },
        "accounting": {
            "events": "660aac54c0295ebae5c7ed991b1ba98f232d299cda075d2a976ad54d53bc9a52",
            "provenance": FIG1_PROVENANCE,
            "ledger": "5559b9a06831b10b33218c604099e48e7cefeb39eee49fe3331902a4c9fb1fc6",
            "windows": "e03fcfa76db8b318d3ffb181fec7d747e8bf5d8cced9cf6808754a535c02091f",
        },
    },
    "fig2 seed 3": {
        "science": {
            "histogram": "592e419cd22dc44d0bf185cf21a55f8e",
            "sizes": "11e03d12112bb0f6922fad790a28c2ff4affd541f6d10316766d65071459fae1",
        },
        "accounting": {
            "events": "5e6e5cb8d7008c389ad470939df017401d5cdb82bf908ee805b825b7ab28f793",
            "provenance": FIG2_PROVENANCE,
            "collab/eventstore.db": "5da23f20f38f2336dbb94061dd3adfc2d28869099f12c1fadfa85b8a4941253a",
            "offsite/mc-remote-u/eventstore.db": "190ae2519bf379ec18ba4e1077defa6df708b3735650c93afc79cacb4ff7e4e0",
            "event files": "d812dac330722dfec14233b361d029cabdc3c03e8d3e8c71a29f265ac29ff89b",
            "telemetry.jsonl": "5e6e5cb8d7008c389ad470939df017401d5cdb82bf908ee805b825b7ab28f793",
        },
    },
    "fig2 seed 11": {
        "science": {
            "histogram": "b1ba10bac61459297d38f01bfa7ba862",
            "sizes": "120eaeb50b4ffb7706a3ce60e5ec37a930d0d4aab74f8696605b57d7a3256f66",
        },
        "accounting": {
            "events": "e23668c2781398d18a37e4ed960b97a8aacb5288cf0da9fb3e0b528bc83d6b82",
            "provenance": FIG2_PROVENANCE,
            "collab/eventstore.db": "44140f834f401b4c6964a1a3d3e7fe222311b715455bcb0af5ecd4678c65301d",
            "offsite/mc-remote-u/eventstore.db": "91a040b55213b857d746dade9752b7be0fe788e84a943a1dfbfa3511ac3757ce",
            "event files": "d3b3605e1db03c0b93fa95ed46b6cbe70384dc80c1b131245541c7a26ea746d9",
            "telemetry.jsonl": "e23668c2781398d18a37e4ed960b97a8aacb5288cf0da9fb3e0b528bc83d6b82",
        },
    },
    "fig2 seed 12": {
        "science": {
            "histogram": "c1ea8f4e4a861e0fbad3ab0c0ef874cb",
            "sizes": "032b818caf9260b10037bcc575ada00048678db8db8577b29f05e1d775572d0e",
        },
        "accounting": {
            "events": "490843e7ef432e84555902f82ad7abfdf15524a36fca6f215c0218d81e54ce0a",
            "provenance": FIG2_PROVENANCE,
            "collab/eventstore.db": "8c3def4039d60714c6eac1eb3772e72ebc05718b8f94d079cee6b80df4938b51",
            "offsite/mc-remote-u/eventstore.db": "c554183dcc9a14e02f3f2d94533e0446e2283af84237327b4f0899b9f377a28c",
            "event files": "16ed0b863ce26ed41059baa915fdc54d11735e33bb820c0e4764292aaf840d74",
            "telemetry.jsonl": "490843e7ef432e84555902f82ad7abfdf15524a36fca6f215c0218d81e54ce0a",
        },
    },
    "cleo ledger": {
        "science": {
            "histogram": "b1ba10bac61459297d38f01bfa7ba862",
            "sizes": "120eaeb50b4ffb7706a3ce60e5ec37a930d0d4aab74f8696605b57d7a3256f66",
        },
        "accounting": {
            "events": "e23668c2781398d18a37e4ed960b97a8aacb5288cf0da9fb3e0b528bc83d6b82",
            "provenance": FIG2_PROVENANCE,
            "ledger": "518236c0b054c081ca2d444d01cebf664272e6576f329db08cba9c1269bf6d9e",
            "windows": "973703038d428c7e03544801a5c4ebfb0c8ce9b732044037b393d0e19df9e9fc",
        },
    },
    "lanes": {
        "science": {
            "outputs": "dbdcfafa673a350c9183d3118f093897d75500ce1574f1732f6112c26533af7e",
        },
        "accounting": {
            "events": "497196249e94137db6758ac8cc314f9ce0df22456f3248d86d7417d8e450a850",
            "provenance": "84996ce0d89d10e38d39a461aba570c1536084516d8dad6f97182578a09d8832",
        },
    },
    "weblab build": {
        "science": {},
        "accounting": {
            "weblab/pages/pages.pack": "af229ba57f3b8baf2d2a95fa5a28550e0c740dce935e593ab828662058946aa9",
            "weblab/weblab.db": "56e5710ce51e14fdf7c6d7e0ad65bffc654e4846c84aafb6c496fa2a00e44214",
        },
    },
    # Asserted where their replays are built: tests/weblab/test_serving_cache.py
    # ::TestPinnedScanReplay and tests/core/test_readcache.py.
    "serving scan replay": {
        "science": {},
        "accounting": {
            "events": "8fdb2e58836365aa6b0e7aecc857c756016a07043cfa82de13b8598cde7a721e",
            "counters": "8612ab3c676c1352218df3e0af8e945a5bb3c735da3afdc26e845b3d5e51d40b",
        },
    },
    "readcache replay": {
        "science": {},
        "accounting": {
            "events": "0a73481366d8f452c01e828e35aff0979aa871e6b5c392e11811d231350cb5bf",
            "counters": "81f13e1cb4bad99b3a7133795e16529be8ed48473102a01000b7a44a8fd050a5",
        },
    },
}

EVENT_KINDS_PIN = "accabb5b6987fb088bd7b6f63ff275d97c3f997a7436e167f6b74f5d7fa996bf"


def assert_pinned(name, got):
    """A failure names each moved digest under its group and prints the
    new fingerprint, which a declared re-pin pastes over the entry."""
    pin = PINS[name]
    moved = {
        group: [
            key for key in sorted(pin[group].keys() | got[group].keys())
            if pin[group].get(key) != got[group].get(key)
        ]
        for group in ("science", "accounting")
    }
    assert not any(moved.values()), f"{name} moved {moved}; its fingerprint is now {got}"


def figure1(workdir, seed, **parallel):
    """Figure 1 cold at perfbench's scale, on a fresh stage cache."""
    cache = StageCache()
    report = run_arecibo_pipeline(workdir, fig1_config(seed, 2, **parallel), cache=cache)
    return fingerprint(report, workdir, cache)


def figure2(workdir, seed, **parallel):
    report = run_cleo_pipeline(workdir, CleoPipelineConfig(n_runs=3, seed=seed, **parallel))
    return fingerprint(report, workdir)


@pytest.mark.parametrize("seed", [3, 11, 12])
def test_figure1_cold(tmp_path, seed):
    assert_pinned(f"fig1 seed {seed}", figure1(tmp_path, seed))


@pytest.mark.parametrize("seed", [11, 12])
def test_figure1_nightly_ledger(tmp_path, seed):
    nightly = run_arecibo_incremental(tmp_path, fig1_config(seed, 3), arrivals=[1, 1, 0, 1])
    assert_pinned(f"nightly seed {seed}", fingerprint(nightly))


@pytest.mark.parametrize("seed", [3, 11, 12])
def test_figure2_cold(tmp_path, seed):
    assert_pinned(f"fig2 seed {seed}", figure2(tmp_path, seed))


def test_cleo_ledger(cleo_ledger):
    assert_pinned("cleo ledger", fingerprint(cleo_ledger[0]))


@pytest.mark.parametrize(
    "engine",
    [dict, lambda: {"cache": StageCache()}],
    ids=["serial", "cached"],
)
def test_engine_lanes(engine):
    assert_pinned("lanes", fingerprint(Engine(seed=11, **engine()).run(lanes_flow(50, 5, 11))))


def test_event_kinds():
    assert digest(sorted(EVENT_KINDS)) == EVENT_KINDS_PIN


def test_the_weblab_build(tmp_path):
    """Row ids and pack records follow load order, so one file set yields
    one database and one pack."""
    weblab, _, _ = build_weblab(tmp_path)
    weblab.close()
    assert_pinned("weblab build", fingerprint(None, tmp_path))
