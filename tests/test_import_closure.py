"""What importing one module loads.

A package ``__init__`` is a map, not an API: importing a leaf module must
not drag its siblings in, the ops CLI — re-run by cron against a
growing log — must start without numpy, and the WebLab services without
networkx.  Each probe runs in a fresh
interpreter so this suite's own imports cannot mask a regression.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = (
    "import json, sys, {module}; "
    "print(json.dumps(sorted(m for m in sys.modules"
    " if m in ('numpy', 'networkx') or m.startswith('repro.'))))"
)


def loaded_by(module):
    completed = subprocess.run(
        [sys.executable, "-c", PROBE.format(module=module)],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_units_loads_itself_and_its_errors_only_and_no_numpy():
    assert loaded_by("repro.core.units") == [
        "repro.core",
        "repro.core.errors",
        "repro.core.units",
    ]


def test_ops_cli_starts_without_numpy():
    assert "numpy" not in loaded_by("repro.ops.__main__")


def test_weblab_services_start_without_networkx():
    """Only the graph analyses need it; serving and every benchmark set-up
    that builds the lab do not pay for its import."""
    assert "networkx" not in loaded_by("repro.weblab.services")
