"""C12 — retro browsing, subsets as views, stratified sampling (Section 4).

Paper claims regenerated here:
* "a Retro Browser to browse the Web as it was at a certain date";
* "a facility to extract subsets of the collection and store them as
  database views";
* researchers "wish to have several time slices, so that they can study
  how things change over time";
* "it would be extremely difficult to extract a stratified sample of Web
  pages from the Internet Archive" on a cluster — and it is one relational
  query here.
"""

import pytest

from repro.weblab.services import build_weblab
from repro.weblab.subsets import SubsetCriteria
from repro.weblab.synthweb import SyntheticWebConfig


@pytest.fixture(scope="module")
def lab(tmp_path_factory):
    root = tmp_path_factory.mktemp("weblab-c12")
    weblab, report, web = build_weblab(root, SyntheticWebConfig(seed=12), n_crawls=6)
    yield weblab, report
    weblab.close()


def test_c12_retro_browsing(lab, report_rows):
    weblab, _ = lab
    url = weblab.database.db.query_value(
        "SELECT url FROM pages GROUP BY url "
        "HAVING count(DISTINCT content_hash) >= 2 LIMIT 1"
    )
    history = weblab.services.capture_history(url)

    page = weblab.services.browse(url, history[-1])

    assert page.fetched_at <= history[-1]
    early = weblab.services.browse(url, history[0])
    late = weblab.services.browse(url, history[-1])
    changed = early.content != late.content
    assert changed  # the chosen page really evolved
    report_rows(
        "C12a: retro browser",
        [
            {"metric": "captures of the page", "value": len(history)},
            {"metric": "time slices span",
             "value": f"{(history[-1] - history[0]) / 86400:.0f} days"},
            {"metric": "content changed across slices", "value": str(changed)},
        ],
    )


def test_c12_subset_views(lab, report_rows):
    weblab, _ = lab
    services = weblab.services

    count = services.extract_subset("edu_slice", SubsetCriteria(tlds=("edu",)))
    expected = weblab.database.db.count("pages", "tld = ?", ("edu",))
    assert count == expected > 0
    assert "edu_slice" in services.subsets()

    # A time-sliced subset: the last two crawls only.
    crawl_indexes = weblab.database.crawl_indexes()
    sliced = services.extract_subset(
        "recent_two", SubsetCriteria(crawl_indexes=tuple(crawl_indexes[-2:]))
    )
    assert sliced == sum(weblab.database.page_count(i) for i in crawl_indexes[-2:])

    report_rows(
        "C12b: subsets as database views",
        [
            {"view": "edu_slice", "criteria": "tld = edu", "rows": count},
            {"view": "recent_two", "criteria": "last 2 crawls", "rows": sliced},
        ],
    )


def test_c12_stratified_sampling(lab, report_rows):
    weblab, _ = lab
    sample = weblab.services.stratified_sample("domain", 3)

    domains = weblab.database.domains()
    assert set(sample) == set(domains)
    assert all(1 <= len(urls) <= 3 for urls in sample.values())
    # Deterministic for a fixed seed — reproducible research samples.
    again = weblab.services.stratified_sample("domain", 3)
    assert sample == again
    report_rows(
        "C12c: stratified sampling",
        [
            {"strata": len(sample),
             "per-stratum cap": 3,
             "total sampled": sum(len(urls) for urls in sample.values()),
             "deterministic": "yes"}
        ],
    )
