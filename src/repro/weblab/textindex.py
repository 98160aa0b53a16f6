"""Inverted full-text index.

"Of the specific tools that researchers want, full text indexes are highly
important, but need not cover the entire Web."  The index is built over a
*subset* (a crawl, a domain slice), exactly as the paper anticipates, and
supports conjunctive queries with tf scoring.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro.core.errors import WebLabError
from repro.core.kernels import index_postings

_TOKEN_RE = re.compile(r"[a-z0-9]+")

_STOPWORDS = frozenset(
    "the of and to in a is that for it on as with was at by an be this are".split()
)


def tokenize(text: str) -> List[str]:
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class SearchHit:
    url: str
    score: float


class TextIndex:
    """An in-memory inverted index over (url, text) documents."""

    def __init__(self, stopwords: frozenset = _STOPWORDS):
        self._postings: Dict[str, Dict[str, int]] = {}
        self._doc_lengths: Dict[str, int] = {}
        # Per-document term lists make removal O(document terms) instead of
        # a scan over the whole vocabulary.
        self._doc_terms: Dict[str, Tuple[str, ...]] = {}
        self._stopwords = stopwords

    def __len__(self) -> int:
        return len(self._doc_lengths)

    @property
    def vocabulary_size(self) -> int:
        return len(self._postings)

    def add(self, url: str, text: str) -> None:
        """Index one document; re-adding a URL replaces its old content."""
        if url in self._doc_lengths:
            self.remove(url)
        tokens = [t for t in tokenize(text) if t not in self._stopwords]
        self._doc_lengths[url] = len(tokens)
        counts = Counter(tokens)
        self._doc_terms[url] = tuple(counts)
        for token, count in counts.items():
            self._postings.setdefault(token, {})[url] = count

    def add_many(self, documents: Iterable[Tuple[str, str]]) -> None:
        """Index a batch of (url, text) documents in one pass.

        Equivalent to calling :meth:`add` per document (later duplicates
        win), but the postings merge runs through the batched
        :func:`repro.core.kernels.index_postings` core — the bulk-build
        path crawl snapshots use.
        """
        stopwords = self._stopwords
        tokenized = [
            (url, [t for t in tokenize(text) if t not in stopwords])
            for url, text in documents
        ]
        for url, _ in tokenized:
            if url in self._doc_lengths:
                self.remove(url)
        postings, doc_lengths, doc_terms = index_postings(tokenized)
        self._doc_lengths.update(doc_lengths)
        self._doc_terms.update(doc_terms)
        for term, bucket in postings.items():
            existing = self._postings.get(term)
            if existing is None:
                self._postings[term] = bucket
            else:
                existing.update(bucket)

    def remove(self, url: str) -> None:
        if url not in self._doc_lengths:
            raise WebLabError(f"index has no document {url!r}")
        del self._doc_lengths[url]
        for term in self._doc_terms.pop(url):
            postings = self._postings.get(term)
            if postings is None:
                continue
            postings.pop(url, None)
            if not postings:
                del self._postings[term]

    def search(self, query: str, limit: int = 10) -> List[SearchHit]:
        """Conjunctive (AND) search, scored by summed term frequency
        normalized by document length."""
        terms = [t for t in tokenize(query) if t not in self._stopwords]
        if not terms:
            raise WebLabError("query has no searchable terms")
        candidate_sets: List[Set[str]] = []
        for term in terms:
            postings = self._postings.get(term)
            if not postings:
                return []
            candidate_sets.append(set(postings))
        candidates = set.intersection(*candidate_sets)
        hits = []
        for url in candidates:
            length = max(self._doc_lengths[url], 1)
            score = sum(self._postings[term][url] for term in terms) / length
            hits.append(SearchHit(url=url, score=score))
        hits.sort(key=lambda hit: (-hit.score, hit.url))
        return hits[:limit]


def build_index(documents: Iterable[Tuple[str, str]]) -> TextIndex:
    """Index (url, text) pairs via the batched :meth:`TextIndex.add_many`."""
    index = TextIndex()
    index.add_many(documents)
    return index
