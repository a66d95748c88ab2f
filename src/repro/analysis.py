"""Diagnostics for TKG event streams.

These are the measurements used to validate that the synthetic
surrogates carry the temporal signals the paper's comparison depends on
(DESIGN.md §2): recurrence for the copy-mechanism family, short-horizon
repetition for the recency-window family, chain structure for
hyperrelation aggregation, and relation co-occurrence statistics for
relation modeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.graph import TemporalKG, build_hyperrelation_graph


@dataclass(frozen=True)
class StreamDiagnostics:
    """Summary statistics of a TKG event stream."""

    num_facts: int
    num_timestamps: int
    facts_per_timestamp: float
    #: Fraction of facts whose exact (s, r, o) appeared at an earlier time.
    repeat_rate: float
    #: Fraction of facts whose (s, r, o) appeared within the last ``window``.
    recent_repeat_rate: float
    #: Fraction of facts whose subject was some fact's object at t-1.
    chain_rate: float
    #: Mean hyperedges per snapshot (twin hyperrelation subgraph size).
    mean_hyperedges: float
    #: Entropy (bits) of the relation usage distribution.
    relation_entropy: float


def diagnose_stream(graph: TemporalKG, window: int = 3, hyper_sample: int = 8) -> StreamDiagnostics:
    """Measure the temporal structure of ``graph``.

    Parameters
    ----------
    graph:
        The stream to analyse.
    window:
        Horizon (timestamps) for the recent-repeat measurement.
    hyper_sample:
        Number of snapshots (evenly spaced) to average hyperedge counts
        over; hypergraph construction on every snapshot would dominate
        the cost.
    """
    times = graph.timestamps
    seen: set = set()
    recent: Dict[tuple, int] = {}
    repeats = recent_repeats = chained = total = 0
    prev_objects: set = set()

    for t in times:
        snapshot = graph.snapshot(int(t))
        triples = [tuple(map(int, row)) for row in snapshot.triples]
        for s, r, o in triples:
            total += 1
            key = (s, r, o)
            if key in seen:
                repeats += 1
            last = recent.get(key)
            if last is not None and t - last <= window:
                recent_repeats += 1
            if s in prev_objects:
                chained += 1
        for s, r, o in triples:
            seen.add((s, r, o))
            recent[(s, r, o)] = int(t)
        prev_objects = {o for _, _, o in triples}

    if len(times) > 0:
        picks = np.unique(np.linspace(0, len(times) - 1, min(hyper_sample, len(times))).astype(int))
        hyper_counts = [
            len(build_hyperrelation_graph(graph.snapshot(int(times[i])))) for i in picks
        ]
        mean_hyper = float(np.mean(hyper_counts))
    else:
        mean_hyper = 0.0

    relation_counts = np.bincount(graph.facts[:, 1], minlength=graph.num_relations)
    probs = relation_counts / max(1, relation_counts.sum())
    nonzero = probs[probs > 0]
    entropy = float(-(nonzero * np.log2(nonzero)).sum())

    return StreamDiagnostics(
        num_facts=len(graph),
        num_timestamps=len(times),
        facts_per_timestamp=len(graph) / max(1, len(times)),
        repeat_rate=repeats / max(1, total),
        recent_repeat_rate=recent_repeats / max(1, total),
        chain_rate=chained / max(1, total),
        mean_hyperedges=mean_hyper,
        relation_entropy=entropy,
    )


def bootstrap_mrr_interval(
    ranks: np.ndarray,
    num_samples: int = 1000,
    confidence: float = 0.95,
    rng: Optional[np.random.Generator] = None,
) -> tuple:
    """Bootstrap confidence interval for the MRR of a rank sample.

    Returns ``(low, high)`` in percent.  Useful for judging whether a
    method gap in the benches exceeds sampling noise.
    """
    ranks = np.asarray(ranks, dtype=np.float64)
    if not len(ranks):
        raise ValueError("need at least one rank")
    rng = rng or np.random.default_rng(0)
    reciprocal = 1.0 / ranks
    means = np.empty(num_samples)
    for i in range(num_samples):
        sample = rng.choice(reciprocal, size=len(reciprocal), replace=True)
        means[i] = sample.mean()
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(means, [alpha, 1.0 - alpha])
    return float(low * 100), float(high * 100)
