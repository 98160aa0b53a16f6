"""Synthetic evolving web.

Stand-in for the Internet Archive crawls: a web of domains and pages that
grows by preferential attachment, whose page text is drawn from topic
vocabularies, and which is snapshotted "every two months" into crawls.
Between crawls pages are added, modified, and deleted, and configured
topics *burst* — their terms spike in pages created during the burst
window — giving the burst-detection experiment known ground truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.errors import WebLabError

_COMMON_WORDS = (
    "the of and to in a is that for it on page site news home about links "
    "contact research web study report data people time year work new"
).split()

_TOPIC_VOCABULARIES = {
    "astronomy": "pulsar telescope survey radio galaxy neutron arecibo sky".split(),
    "politics": "election campaign senate vote policy debate congress".split(),
    "sports": "game season team score playoff coach league final".split(),
    "technology": "software internet server network code browser protocol".split(),
    "weblog": "blog post comment diary entry journal feed subscribe".split(),
}


@dataclass(frozen=True)
class BurstSpec:
    """Ground truth for one topic burst."""

    topic: str
    start_crawl: int
    end_crawl: int
    intensity: float = 4.0

    def active(self, crawl_index: int) -> bool:
        return self.start_crawl <= crawl_index <= self.end_crawl


@dataclass
class PageRecord:
    """One crawled page."""

    url: str
    ip: str
    fetched_at: float       # epoch seconds
    content: str
    outlinks: Tuple[str, ...]
    mime: str = "text/html"

    @property
    def size_bytes(self) -> int:
        return len(self.content.encode("utf-8"))


@dataclass
class CrawlSnapshot:
    """One bimonthly crawl: the pages fetched in that pass."""

    crawl_index: int
    crawl_time: float
    pages: List[PageRecord]

    @property
    def page_count(self) -> int:
        return len(self.pages)

    def urls(self) -> Set[str]:
        return {page.url for page in self.pages}


@dataclass
class SyntheticWebConfig:
    """Growth and content parameters."""

    n_domains: int = 12
    initial_pages: int = 60
    new_pages_per_crawl: int = 30
    modify_fraction: float = 0.2
    delete_fraction: float = 0.05
    links_per_page: int = 4
    words_per_page: int = 120
    # Topical assortativity: how much more likely a page is to link to a
    # same-topic page than to a random one (the real web's communities).
    topic_affinity: float = 4.0
    crawl_interval_days: float = 61.0  # "every two months"
    start_epoch: float = 820454400.0   # 1996-01-01, the archive's first crawl
    bursts: Tuple[BurstSpec, ...] = (
        BurstSpec(topic="weblog", start_crawl=3, end_crawl=5, intensity=5.0),
    )
    seed: int = 0


class SyntheticWeb:
    """Generates a sequence of crawls with preferential-attachment links."""

    def __init__(self, config: Optional[SyntheticWebConfig] = None):
        self.config = config if config is not None else SyntheticWebConfig()
        if self.config.n_domains < 1 or self.config.initial_pages < 2:
            raise WebLabError("need at least one domain and two pages")
        self._rng = random.Random(self.config.seed)
        self._domains = [
            f"site{index:02d}.{'edu' if index % 3 == 0 else 'com'}"
            for index in range(self.config.n_domains)
        ]
        self._pages: Dict[str, PageRecord] = {}
        self._inlink_counts: Dict[str, int] = {}
        self._page_counter = 0
        self._page_topics: Dict[str, str] = {}

    # -- internals ---------------------------------------------------------
    def _new_url(self) -> str:
        domain = self._rng.choice(self._domains)
        self._page_counter += 1
        return f"http://{domain}/page{self._page_counter:05d}.html"

    def _pick_topic(self, crawl_index: int) -> str:
        topics = list(_TOPIC_VOCABULARIES)
        weights = []
        for topic in topics:
            weight = 1.0
            for burst in self.config.bursts:
                if burst.topic == topic and burst.active(crawl_index):
                    weight *= burst.intensity
            weights.append(weight)
        return self._rng.choices(topics, weights=weights, k=1)[0]

    def _make_content(self, topic: str) -> str:
        words = []
        vocabulary = _TOPIC_VOCABULARIES[topic]
        for _ in range(self.config.words_per_page):
            if self._rng.random() < 0.35:
                words.append(self._rng.choice(vocabulary))
            else:
                words.append(self._rng.choice(_COMMON_WORDS))
        return " ".join(words)

    def _pick_link_targets(
        self, count: int, exclude: str, topic: Optional[str] = None
    ) -> Tuple[str, ...]:
        """Preferential attachment with topical assortativity:
        probability ~ (inlinks + 1) x affinity(topic match)."""
        candidates = [url for url in self._pages if url != exclude]
        if not candidates:
            return ()
        weights = [
            (self._inlink_counts.get(url, 0) + 1)
            * (
                self.config.topic_affinity
                if topic is not None and self._page_topics.get(url) == topic
                else 1.0
            )
            for url in candidates
        ]
        targets: List[str] = []
        for _ in range(min(count, len(candidates))):
            choice = self._rng.choices(candidates, weights=weights, k=1)[0]
            if choice not in targets:
                targets.append(choice)
                self._inlink_counts[choice] = self._inlink_counts.get(choice, 0) + 1
        return tuple(targets)

    def _create_page(self, crawl_index: int, crawl_time: float) -> PageRecord:
        url = self._new_url()
        topic = self._pick_topic(crawl_index)
        self._page_topics[url] = topic
        page = PageRecord(
            url=url,
            ip=f"10.{self._rng.randrange(256)}.{self._rng.randrange(256)}."
            f"{self._rng.randrange(1, 255)}",
            fetched_at=crawl_time,
            content=self._make_content(topic),
            outlinks=self._pick_link_targets(
                self.config.links_per_page, exclude=url, topic=topic
            ),
        )
        self._pages[url] = page
        self._inlink_counts.setdefault(url, 0)
        return page

    # -- public API ----------------------------------------------------------
    def generate_crawls(self, n_crawls: int) -> List[CrawlSnapshot]:
        """Simulate ``n_crawls`` bimonthly passes over the evolving web."""
        if n_crawls < 1:
            raise WebLabError("need at least one crawl")
        crawls: List[CrawlSnapshot] = []
        interval = self.config.crawl_interval_days * 86400.0
        for crawl_index in range(n_crawls):
            crawl_time = self.config.start_epoch + crawl_index * interval
            if crawl_index == 0:
                for _ in range(self.config.initial_pages):
                    self._create_page(crawl_index, crawl_time)
            else:
                # Evolution: delete, modify, add.
                urls = list(self._pages)
                n_delete = int(len(urls) * self.config.delete_fraction)
                for url in self._rng.sample(urls, n_delete):
                    del self._pages[url]
                survivors = list(self._pages)
                n_modify = int(len(survivors) * self.config.modify_fraction)
                for url in self._rng.sample(survivors, n_modify):
                    old = self._pages[url]
                    # Modified pages drift toward what the web is talking
                    # about right now — during a burst window, that is the
                    # bursting topic.
                    topic = self._pick_topic(crawl_index)
                    self._page_topics[url] = topic
                    self._pages[url] = PageRecord(
                        url=old.url,
                        ip=old.ip,
                        fetched_at=crawl_time,
                        content=self._make_content(topic),
                        outlinks=old.outlinks,
                    )
                for _ in range(self.config.new_pages_per_crawl):
                    self._create_page(crawl_index, crawl_time)
            # The crawl fetches every live page, stamped at this pass.
            snapshot_pages = [
                PageRecord(
                    url=page.url,
                    ip=page.ip,
                    fetched_at=crawl_time,
                    content=page.content,
                    outlinks=page.outlinks,
                )
                for page in self._pages.values()
            ]
            snapshot_pages.sort(key=lambda page: page.url)
            crawls.append(
                CrawlSnapshot(
                    crawl_index=crawl_index,
                    crawl_time=crawl_time,
                    pages=snapshot_pages,
                )
            )
        return crawls
