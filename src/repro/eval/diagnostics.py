"""Per-relation / per-timestamp evaluation diagnostics.

:func:`~repro.eval.evaluate_extrapolation` returns one aggregate
MRR/Hits@k row — enough for Tables III/IV, useless for asking *which
relations drag the average down*, *does accuracy decay along the test
horizon* or *how much of the score comes from entities never seen in
training*.  The paper's own per-module/per-relation decompositions
(Tables VI–IX) are exactly these views.

:func:`diagnose_extrapolation` runs the same protocol as the evaluator
but keeps the per-query grouping keys (relation id, timestamp, whether
the gold entity was seen before the test period) and accumulates each
group in a *bounded* :class:`~repro.eval.metrics.RankAccumulator` —
per-group MRR/Hits@k stay exact while no raw rank array is retained,
so diagnostics on large eval sets are O(groups x buckets) memory.

The decomposition is lossless: the frequency-weighted mean of the
per-relation (or per-timestamp, or seen/unseen) MRRs reproduces the
aggregate MRR to float precision — ``repro.cli diagnose`` prints the
recomposition check and the test suite asserts it at 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from repro.eval.filters import FilterIndex
from repro.eval.interface import ExtrapolationModel
from repro.eval.metrics import RankAccumulator
from repro.eval.protocol import TimestampScores, run_protocol
from repro.graph import TemporalKG


@dataclass
class DiagnosticsReport:
    """Entity-task decomposition plus the relation-task aggregate."""

    setting: str
    aggregate: Dict[str, float] = field(default_factory=dict)
    per_relation: Dict[int, Dict[str, float]] = field(default_factory=dict)
    per_timestamp: Dict[int, Dict[str, float]] = field(default_factory=dict)
    seen: Dict[str, float] = field(default_factory=dict)
    unseen: Dict[str, float] = field(default_factory=dict)
    rank_histogram: List[dict] = field(default_factory=list)
    relation_aggregate: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def weighted_relation_mrr(self) -> float:
        """Frequency-weighted mean of per-relation MRRs.

        Equals ``aggregate["MRR"]`` up to float rounding — the
        recomposition invariant the CLI and tests check.
        """
        return self._weighted_mrr(self.per_relation)

    def weighted_timestamp_mrr(self) -> float:
        """Frequency-weighted mean of per-timestamp MRRs."""
        return self._weighted_mrr(self.per_timestamp)

    @staticmethod
    def _weighted_mrr(groups: Dict[int, Dict[str, float]]) -> float:
        total = sum(g["count"] for g in groups.values())
        if not total:
            return 0.0
        return sum(g["count"] * g["MRR"] for g in groups.values()) / total

    def worst_relations(self, n: int = 5) -> List[tuple]:
        """The ``n`` ``(relation_id, summary)`` pairs of lowest MRR, lowest first.

        Raises ValueError for ``n < 1``: a negative slice bound would
        list every relation but the best ``-n``.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        ranked = sorted(self.per_relation.items(), key=lambda kv: kv[1]["MRR"])
        return ranked[:n]

    def to_dict(self) -> dict:
        """JSON-ready structure (``repro.cli diagnose --format json``)."""
        return {
            "task": "entity",
            "setting": self.setting,
            "aggregate": dict(self.aggregate),
            "per_relation": {str(k): dict(v) for k, v in sorted(self.per_relation.items())},
            "per_timestamp": {
                str(k): dict(v) for k, v in sorted(self.per_timestamp.items())
            },
            "seen": dict(self.seen),
            "unseen": dict(self.unseen),
            "rank_histogram": list(self.rank_histogram),
            "relation_aggregate": dict(self.relation_aggregate),
            "weighted_relation_mrr": self.weighted_relation_mrr(),
        }


def known_entities_of(*graphs: TemporalKG) -> Set[int]:
    """Entity ids appearing as subject or object anywhere in ``graphs``."""
    known: Set[int] = set()
    for graph in graphs:
        for ts in graph.timestamps:
            triples = graph.snapshot(int(ts)).triples
            if len(triples):
                known.update(np.unique(triples[:, [0, 2]]).tolist())
    return known


class DiagnosticsAccumulators:
    """The mutable accumulator state behind :func:`diagnose_extrapolation`.

    :func:`diagnose_extrapolation` folds each scored timestamp in with
    one :meth:`update`, in chronological order.
    """

    def __init__(self, known_entities: Optional[Set[int]], num_entities: int):
        self.total = _bounded()
        self.by_relation: Dict[int, RankAccumulator] = {}
        self.by_timestamp: Dict[int, RankAccumulator] = {}
        self.seen_acc = _bounded()
        self.unseen_acc = _bounded()
        self.relation_acc = _bounded()
        self.known_array: Optional[np.ndarray] = None
        if known_entities is not None:
            self.known_array = np.zeros(num_entities, dtype=bool)
            self.known_array[
                np.fromiter(known_entities, dtype=np.int64, count=len(known_entities))
            ] = True

    def update(self, scored: TimestampScores) -> None:
        """Fold one timestamp's ranks into every diagnostic axis."""
        ranks = scored.entity_ranks
        self.total.update(ranks)
        self.by_timestamp.setdefault(scored.ts, _bounded()).update(ranks)
        for rid in np.unique(scored.base_relations):
            self.by_relation.setdefault(int(rid), _bounded()).update(
                ranks[scored.base_relations == rid]
            )
        if self.known_array is not None:
            seen_mask = self.known_array[scored.targets]
            self.seen_acc.update(ranks[seen_mask])
            self.unseen_acc.update(ranks[~seen_mask])
        if scored.relation_ranks is not None:
            self.relation_acc.update(scored.relation_ranks)

    def report(self, setting: str, evaluate_relations: bool) -> DiagnosticsReport:
        """Freeze the accumulated state into a report."""
        return DiagnosticsReport(
            setting=setting,
            aggregate=self.total.summary(),
            per_relation={
                rid: acc.summary() for rid, acc in sorted(self.by_relation.items())
            },
            per_timestamp={
                t: acc.summary() for t, acc in sorted(self.by_timestamp.items())
            },
            seen=self.seen_acc.summary() if self.known_array is not None else {},
            unseen=self.unseen_acc.summary() if self.known_array is not None else {},
            rank_histogram=self.total.histogram(),
            relation_aggregate=self.relation_acc.summary() if evaluate_relations else {},
        )


def _bounded() -> RankAccumulator:
    return RankAccumulator(bounded=True)


def emit_diagnostic_event(reporter, report: DiagnosticsReport) -> None:
    """One schema-validated ``diagnostic`` event for ``report``."""
    reporter.emit(
        "diagnostic",
        task="entity",
        setting=report.setting,
        aggregate=report.aggregate,
        relations={str(k): v for k, v in report.per_relation.items()},
        timestamps={str(k): v for k, v in report.per_timestamp.items()},
        seen=report.seen,
        unseen=report.unseen,
        relation_aggregate=report.relation_aggregate,
    )


def diagnose_extrapolation(
    model: ExtrapolationModel,
    test_graph: TemporalKG,
    setting: str = "raw",
    filter_index: Optional[FilterIndex] = None,
    observe: bool = True,
    known_entities: Optional[Set[int]] = None,
    evaluate_relations: bool = True,
    *,
    reporter=None,
) -> DiagnosticsReport:
    """Run the evaluation protocol, decomposed along diagnostic axes.

    Mirrors :func:`~repro.eval.evaluate_extrapolation` (same queries,
    both entity directions, same filtering and online-observe
    semantics) but groups every entity
    rank by relation id, test timestamp and seen/unseen gold entity.
    ``known_entities`` is the id set revealed before the test period
    (train + validation); without it the seen/unseen split is skipped.
    A :class:`~repro.obs.RunReporter` passed as ``reporter`` receives the
    ``worker`` event and then one schema-validated ``diagnostic`` event
    with the full decomposition.
    """
    accumulators = DiagnosticsAccumulators(known_entities, test_graph.num_entities)
    run_protocol(
        model,
        test_graph,
        accumulators.update,
        setting=setting,
        filter_index=filter_index,
        evaluate_relations=evaluate_relations,
        observe=observe,
        dedup=False,
        reporter=reporter,
    )
    report = accumulators.report(setting, evaluate_relations)
    if reporter is not None:
        emit_diagnostic_event(reporter, report)
    return report


def format_diagnostics(report: DiagnosticsReport, top: int = 5) -> str:
    """Human-readable diagnostics table (``repro.cli diagnose``).

    ``top`` (>= 1, else ValueError) worst relations are listed.
    """
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    lines: List[str] = []
    agg = report.aggregate
    lines.append(
        f"entity task ({report.setting}, {agg.get('count', 0)} queries): "
        f"MRR {agg.get('MRR', 0.0):.2f}  "
        + "  ".join(
            f"{k} {v:.2f}" for k, v in agg.items() if k.startswith("Hits@")
        )
    )
    if report.relation_aggregate:
        rel = report.relation_aggregate
        lines.append(
            f"relation task: MRR {rel.get('MRR', 0.0):.2f} "
            f"({rel.get('count', 0)} queries)"
        )
    recomposed = report.weighted_relation_mrr()
    lines.append(
        f"recomposition: weighted per-relation MRR {recomposed:.6f} "
        f"vs aggregate {agg.get('MRR', 0.0):.6f} "
        f"(delta {abs(recomposed - agg.get('MRR', 0.0)):.2e})"
    )
    if report.per_relation:
        lines.append(f"worst {min(top, len(report.per_relation))} relations by MRR:")
        lines.append("  relation   MRR    Hits@1  Hits@10  queries")
        for rid, stats in report.worst_relations(top):
            lines.append(
                f"  {rid:8d}  {stats['MRR']:6.2f}  {stats.get('Hits@1', 0.0):6.2f}  "
                f"{stats.get('Hits@10', 0.0):7.2f}  {stats['count']:7d}"
            )
    if report.per_timestamp:
        first_t = min(report.per_timestamp)
        last_t = max(report.per_timestamp)
        lines.append(
            f"horizon: MRR {report.per_timestamp[first_t]['MRR']:.2f} at t={first_t} "
            f"-> {report.per_timestamp[last_t]['MRR']:.2f} at t={last_t} "
            f"({len(report.per_timestamp)} timestamps)"
        )
    if report.seen or report.unseen:
        lines.append(
            f"seen entities: MRR {report.seen.get('MRR', 0.0):.2f} "
            f"({report.seen.get('count', 0)} queries)  |  unseen: "
            f"MRR {report.unseen.get('MRR', 0.0):.2f} "
            f"({report.unseen.get('count', 0)} queries)"
        )
    tail = [b for b in report.rank_histogram if b["le"] == "+inf"]
    if tail and report.rank_histogram:
        lines.append(
            f"rank histogram: {len(report.rank_histogram)} log-spaced buckets, "
            f"{tail[0]['count']} total ranks"
        )
    return "\n".join(lines)
