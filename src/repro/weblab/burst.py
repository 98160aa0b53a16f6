"""Burst detection on term streams.

"Others plan to extend research on burst detection, which can be used to
identify emerging topics, to highlight portions of the Web that are
undergoing rapid change at any point in time, and to provide a means of
structuring the content of emerging media like Weblogs."

This is Kleinberg's two-state automaton adapted to batched (per-crawl)
counts: in each time slice a term occurs ``k`` of ``n`` times; the base
state emits at the corpus rate, the burst state at ``scaling`` times that
rate; switching into the burst state costs ``gamma``; Viterbi decoding
yields the burst intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import WebLabError


@dataclass(frozen=True)
class BurstInterval:
    """One decoded burst: [start, end] time-slice indexes, with weight."""

    start: int
    end: int
    weight: float  # summed log-likelihood advantage over the base state


def _binomial_log_likelihood(k: int, n: int, p: float) -> float:
    """log P(k of n | rate p), dropping the k-independent binomial term.

    The combinatorial coefficient cancels when comparing states, so only
    the rate-dependent part is kept.
    """
    p = min(max(p, 1e-12), 1 - 1e-12)
    return k * math.log(p) + (n - k) * math.log(1 - p)


def detect_bursts(
    counts: Sequence[int],
    totals: Sequence[int],
    scaling: float = 3.0,
    gamma: float = 1.0,
) -> List[BurstInterval]:
    """Two-state Viterbi decoding of a term's time series.

    ``counts[t]`` is the term's occurrences in slice ``t``; ``totals[t]``
    the slice's total word count.  Returns maximal burst-state intervals.
    """
    if len(counts) != len(totals):
        raise WebLabError("counts and totals must align")
    if not counts:
        return []
    if scaling <= 1.0:
        raise WebLabError("burst-state scaling must exceed 1")
    if any(k > n for k, n in zip(counts, totals)):
        raise WebLabError("a slice's term count exceeds its total")
    total_k = sum(counts)
    total_n = sum(totals)
    if total_n == 0:
        raise WebLabError("empty corpus")
    base_rate = max(total_k / total_n, 1e-12)
    burst_rate = min(base_rate * scaling, 0.9999)
    transition_cost = gamma * math.log(len(counts) + 1)

    # Viterbi over states {0: base, 1: burst}.
    score = [0.0, -transition_cost]
    backpointer: List[Tuple[int, int]] = []
    for k, n in zip(counts, totals):
        emit0 = _binomial_log_likelihood(k, n, base_rate)
        emit1 = _binomial_log_likelihood(k, n, burst_rate)
        stay0 = score[0]
        from1 = score[1]  # leaving a burst is free
        best0, back0 = (stay0, 0) if stay0 >= from1 else (from1, 1)
        stay1 = score[1]
        from0 = score[0] - transition_cost
        best1, back1 = (stay1, 1) if stay1 >= from0 else (from0, 0)
        score = [best0 + emit0, best1 + emit1]
        backpointer.append((back0, back1))

    # Trace back the state sequence.
    state = 0 if score[0] >= score[1] else 1
    states = [0] * len(counts)
    for t in range(len(counts) - 1, -1, -1):
        states[t] = state
        state = backpointer[t][state]

    # Collect burst intervals and weight them.
    intervals: List[BurstInterval] = []
    start: Optional[int] = None
    weight = 0.0
    for t, s in enumerate(states):
        advantage = _binomial_log_likelihood(
            counts[t], totals[t], burst_rate
        ) - _binomial_log_likelihood(counts[t], totals[t], base_rate)
        if s == 1 and start is None:
            start = t
            weight = advantage
        elif s == 1:
            weight += advantage
        elif start is not None:
            intervals.append(BurstInterval(start=start, end=t - 1, weight=weight))
            start = None
    if start is not None:
        intervals.append(BurstInterval(start=start, end=len(counts) - 1, weight=weight))
    return intervals


def term_time_series(
    documents_by_slice: Sequence[Sequence[str]], term: str
) -> Tuple[List[int], List[int]]:
    """(term counts, total word counts) per time slice from raw documents."""
    counts: List[int] = []
    totals: List[int] = []
    for documents in documents_by_slice:
        slice_count = 0
        slice_total = 0
        for document in documents:
            words = document.split()
            slice_total += len(words)
            slice_count += sum(1 for word in words if word == term)
        counts.append(slice_count)
        totals.append(slice_total)
    return counts, totals


def bursty_terms(
    documents_by_slice: Sequence[Sequence[str]],
    vocabulary: Sequence[str],
    scaling: float = 3.0,
    gamma: float = 1.0,
    min_weight: float = 1.0,
) -> Dict[str, List[BurstInterval]]:
    """Burst intervals per vocabulary term, weight-filtered."""
    results: Dict[str, List[BurstInterval]] = {}
    for term in vocabulary:
        counts, totals = term_time_series(documents_by_slice, term)
        intervals = [
            interval
            for interval in detect_bursts(counts, totals, scaling, gamma)
            if interval.weight >= min_weight
        ]
        if intervals:
            results[term] = intervals
    return results
