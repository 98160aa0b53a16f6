"""Shared benchmark utilities: paper-vs-measured row reporting.

Each benchmark hands its tables to ``report_rows``; they are printed at
teardown (visible with ``-s``).  Timing is perfbench's job, not this
suite's: a table here may report a wall-derived figure, but no assertion
holds one against a constant or another configuration's reading.  The one
exception is C16's ratio of two flow sizes run in one process.
"""

import pytest


def emit_table(title, rows):
    """Print a paper-vs-measured table (visible with -s or in bench logs)."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    keys = list(rows[0])
    widths = {
        key: max(len(str(key)), max(len(str(row.get(key, ""))) for row in rows))
        for key in keys
    }
    header = "  ".join(str(key).ljust(widths[key]) for key in keys)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(str(row.get(key, "")).ljust(widths[key]) for key in keys))


@pytest.fixture()
def report_rows():
    """Collects a benchmark's tables and prints them at teardown."""
    collected = {}

    def collect(title, rows):
        collected[title] = rows

    yield collect
    for title, rows in collected.items():
        emit_table(title, rows)
