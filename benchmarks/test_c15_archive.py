"""C15 — long-term archiving and media migration (Sections 2.2 / 5).

Paper claims regenerated here:
* "all three projects would benefit from reliable low-cost long-term
  storage solutions" — tape's cost advantage over disk at archive scale;
* "storage media costs undoubtedly will decrease, but manpower
  requirements for migrating the data are significant and care is needed
  to avoid loss of data" — the migrate-early / migrate-late / never-migrate
  policy study;
* dual-copy archiving as the loss-risk mitigation.
"""

import random


from repro.core.resources import DISK_COST_2005, TAPE_COST_2005
from repro.core.units import DataSize, Duration
from repro.storage.archive import LongTermArchive
from repro.storage.hsm import HierarchicalStore
from repro.storage.media import LTO3_TAPE, LTO5_TAPE
from repro.storage.tape import RoboticTapeLibrary


def run_policy(policy, copies, seed, n_files=60, file_gb=20, years=20):
    """Age an archive for ``years``; migrate per policy.  Returns outcome."""
    archive = LongTermArchive(
        f"{policy}-c{copies}", LTO3_TAPE, copies=copies, rng=random.Random(seed)
    )
    for index in range(n_files):
        archive.ingest(f"block{index:03d}", DataSize.gigabytes(file_gb))
    migrations = 0
    personnel_hours = 0.0
    for year in range(years):
        archive.age(1.0)
        due = (policy == "migrate-every-4y" and (year + 1) % 4 == 0) or (
            policy == "migrate-once-late" and year == 15
        )
        if due:
            assert archive.fixity_check() == []  # "care is needed": copy only what verifies
            report = archive.migrate(LTO5_TAPE if migrations == 0 else LTO3_TAPE)
            migrations += 1
            personnel_hours += report.personnel_time.hours_
    lost = n_files - len(archive.catalog.files_alive())
    return {
        "policy": policy,
        "copies": copies,
        "files lost": lost,
        "migrations": migrations,
        "personnel (h)": f"{personnel_hours:.1f}",
        "media cost": f"${archive.ledger.total('media'):,.0f}",
        "_lost": lost,
    }


def policy_rows(seeds=range(8)):
    """Average outcomes over several RNG seeds for stability."""
    rows = []
    for policy in ("never-migrate", "migrate-once-late", "migrate-every-4y"):
        for copies in (1, 2):
            outcomes = [run_policy(policy, copies, seed) for seed in seeds]
            lost = sum(o["_lost"] for o in outcomes) / len(outcomes)
            rows.append(
                {
                    "policy": policy,
                    "copies": copies,
                    "mean files lost (of 60)": f"{lost:.1f}",
                    "migrations": outcomes[0]["migrations"],
                    "personnel (h)": outcomes[0]["personnel (h)"],
                    "media cost": outcomes[0]["media cost"],
                    "_lost": lost,
                }
            )
    return rows


def test_c15_migration_policies(benchmark, report_rows):
    rows = benchmark.pedantic(policy_rows, rounds=1, iterations=1)
    by_key = {(row["policy"], row["copies"]): row["_lost"] for row in rows}
    # Never migrating single-copy media for two decades loses data.
    assert by_key[("never-migrate", 1)] > 0
    # Regular migration onto fresh media protects it...
    assert by_key[("migrate-every-4y", 1)] < by_key[("never-migrate", 1)]
    # ...and dual copies help at every policy.
    for policy in ("never-migrate", "migrate-once-late", "migrate-every-4y"):
        assert by_key[(policy, 2)] <= by_key[(policy, 1)]
    # But migration is not free: the frequent policy costs personnel hours.
    frequent = next(r for r in rows if r["policy"] == "migrate-every-4y"
                    and r["copies"] == 1)
    assert float(frequent["personnel (h)"]) > 0
    for row in rows:
        row.pop("_lost")
    report_rows("C15a: archive migration policies over 20 years", rows)


def test_c15_tape_vs_disk_economics(benchmark, report_rows):
    """The Petabyte-archive cost argument."""
    def costs():
        rows = []
        for volume, label in (
            (DataSize.terabytes(90), "CLEO (90 TB)"),
            (DataSize.terabytes(544), "WebLab (544 TB)"),
            (DataSize.petabytes(1), "Arecibo (1 PB)"),
        ):
            decade = Duration.years(10)
            tape = TAPE_COST_2005.retention_cost(volume, decade)
            disk = DISK_COST_2005.retention_cost(volume, decade)
            rows.append(
                {
                    "archive": label,
                    "tape, 10 yr": f"${tape:,.0f}",
                    "disk, 10 yr": f"${disk:,.0f}",
                    "disk/tape": f"{disk / tape:.1f}x",
                }
            )
        return rows

    rows = benchmark(costs)
    assert all(float(row["disk/tape"].rstrip("x")) > 5 for row in rows)
    report_rows("C15b: tape vs disk retention economics", rows)


def test_c15_cartridge_loss(report_rows):
    """One dead cartridge: tape loses everything on it, and what the disk
    tier still holds is re-archived instead of lost."""
    rows = []
    for disk_gb in (20, 100, 200):
        hsm = HierarchicalStore(
            RoboticTapeLibrary("archive", LTO3_TAPE), DataSize.gigabytes(disk_gb)
        )
        for index in range(10):
            hsm.store(f"block{index:02d}", DataSize.gigabytes(20))
        loss = hsm.fail_cartridge(0)
        assert all(hsm.read(name)[0].verify() for name in loss.recoverable)
        rows.append({
            "disk tier": f"{disk_gb} GB", "lost from tape": len(loss.lost),
            "re-archived from disk": len(loss.recoverable),
            "lost for good": len(loss.unrecoverable),
        })
    assert [row["lost for good"] for row in rows] == [9, 5, 0]
    report_rows("C15c: one failed cartridge (10 x 20 GB) vs disk-tier size", rows)
