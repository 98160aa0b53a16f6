"""C13 — burst detection for emerging topics (Section 4).

Paper claim regenerated here: "research on burst detection, which can be
used to identify emerging topics, to highlight portions of the Web that
are undergoing rapid change at any point in time, and to provide a means
of structuring the content of emerging media like Weblogs."

Ground truth: the synthetic web injects a weblog-topic burst over a known
crawl window.  The harness measures whether decoded burst intervals
overlap the injected window, for burst terms and for control terms.
"""

import pytest

from repro.weblab.burst import detect_bursts
from repro.weblab.services import build_weblab
from repro.weblab.synthweb import BurstSpec, SyntheticWebConfig

BURST = BurstSpec(topic="weblog", start_crawl=3, end_crawl=5, intensity=6.0)
BURST_TERMS = ("blog", "post", "comment")
CONTROL_TERMS = ("pulsar", "game", "election")


@pytest.fixture(scope="module")
def lab(tmp_path_factory):
    root = tmp_path_factory.mktemp("weblab-c13")
    config = SyntheticWebConfig(seed=21, bursts=(BURST,))
    weblab, report, web = build_weblab(root, config, n_crawls=8)
    yield weblab
    weblab.close()


def run_detection(lab):
    # min_weight separates the injected burst (weights ~25-30) from weak
    # compositional artifacts on control terms (weights < 10).
    results = lab.services.detect_bursts(
        list(BURST_TERMS + CONTROL_TERMS), scaling=1.5, min_weight=12.0
    )
    rows = []
    for term in BURST_TERMS + CONTROL_TERMS:
        intervals = results.get(term, [])
        overlap = any(
            interval.start <= BURST.end_crawl and BURST.start_crawl <= interval.end
            for interval in intervals
        )
        rows.append(
            {
                "term": term,
                "ground truth": "bursts 3-5" if term in BURST_TERMS else "quiet",
                "detected intervals": ", ".join(
                    f"[{i.start}-{i.end}]" for i in intervals
                ) or "-",
                "overlaps truth": "yes" if overlap else "no",
            }
        )
    return rows


def test_c13_burst_detection(lab, report_rows):
    rows = run_detection(lab)
    by_term = {row["term"]: row for row in rows}
    # At least 2 of the 3 burst-vocabulary terms are caught in the window.
    hits = sum(1 for term in BURST_TERMS if by_term[term]["overlaps truth"] == "yes")
    assert hits >= 2
    # Control terms stay quiet.
    false_hits = sum(
        1 for term in CONTROL_TERMS if by_term[term]["detected intervals"] != "-"
    )
    assert false_hits == 0
    report_rows("C13: burst detection vs injected ground truth", rows)


def test_c13_synthetic_calibration(report_rows):
    """The decoder on textbook inputs: one clean burst, exact bounds."""
    counts = [5, 6, 5, 42, 40, 44, 5, 6]
    totals = [1000] * 8
    intervals = detect_bursts(counts, totals, 3.0, 1.0)
    assert [(i.start, i.end) for i in intervals] == [(3, 5)]
    report_rows(
        "C13b: decoder calibration",
        [{"input": "rate 0.5% -> 4% over slices 3-5",
          "decoded": f"[{intervals[0].start}-{intervals[0].end}]",
          "weight": f"{intervals[0].weight:.1f}"}],
    )
