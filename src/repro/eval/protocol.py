"""Evaluation driver: walk test timestamps, rank, accumulate metrics.

The paper's protocol is one loop — score timestamp ``t`` from history
before ``t``, then reveal ``t`` — and :func:`run_protocol` is its one
implementation, behind both :func:`evaluate_extrapolation` and
:func:`~repro.eval.diagnose_extrapolation`.  It runs in the calling
process and reveals each timestamp right after scoring it, which is
what online models (``OnlineAdapter``) need.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.eval.filters import FilterIndex
from repro.eval.interface import ExtrapolationModel
from repro.eval.metrics import RankAccumulator, dedup_rows, ranks_from_scores
from repro.graph import Snapshot, TemporalKG
from repro.obs import tracing


@dataclass
class EvaluationResult:
    """Entity and relation forecasting metrics plus query counts."""

    entity: Dict[str, float] = field(default_factory=dict)
    relation: Dict[str, float] = field(default_factory=dict)

    def row(self, metrics=("MRR", "Hits@1", "Hits@3", "Hits@10")) -> Dict[str, float]:
        """Flat entity-metric row (Table III/IV shape)."""
        return {m: self.entity.get(m, float("nan")) for m in metrics}


@dataclass
class TimestampScores:
    """Everything one scored timestamp contributes to the metrics.

    :func:`run_protocol` hands one of these per non-empty timestamp, in
    timestamp order, to the caller's fold.  The grouping keys
    (``targets`` for the seen/unseen split, ``base_relations`` for the
    per-relation split) let the diagnostics decomposition fold it
    without re-scoring.
    """

    ts: int
    entity_ranks: np.ndarray
    relation_ranks: Optional[np.ndarray]
    targets: np.ndarray
    base_relations: np.ndarray


def score_timestamp(
    model: ExtrapolationModel,
    snapshot: Snapshot,
    num_relations: int,
    setting: str = "raw",
    filter_index: Optional[FilterIndex] = None,
    evaluate_relations: bool = True,
    dedup: bool = True,
) -> Optional[TimestampScores]:
    """Score one test timestamp exactly as the protocol prescribes.

    Entity queries cover both directions — object queries ``(s, r, ?)``
    and subject queries ``(?, r, o)`` expressed as ``(o, r + M, ?)`` —
    and the relation task ranks ``(s, ?, o)`` among the M true
    relations.  ``dedup=True`` scores each distinct query once and ranks
    every row against its query's scores (the :func:`evaluate_extrapolation`
    convention); ``dedup=False`` scores every row directly (the
    diagnostics convention).  The two produce equal score *values* but
    feed differently-shaped batches to the model, so bit-exact
    equivalence claims must hold the flag fixed.

    Returns ``None`` for an empty timestamp (nothing to rank).
    """
    triples = snapshot.triples
    if not len(triples):
        return None
    ts = int(snapshot.time)
    s, r, o = triples[:, 0], triples[:, 1], triples[:, 2]

    queries = np.concatenate(
        [np.stack([s, r], axis=1), np.stack([o, r + num_relations], axis=1)]
    )
    targets = np.concatenate([o, s])
    # Raw ranking never uses a mask, so skip building one even when a
    # FilterIndex was supplied.
    if setting == "raw":
        mask = None
    else:
        mask = filter_index.mask(queries, ts, setting)
    if hasattr(model, "rank_entities"):
        # RETIA ranks the gold entities itself, with exactly the code
        # below, bit for bit.
        entity_ranks = model.rank_entities(queries, targets, ts, mask=mask, dedup=dedup)
    else:
        # A (subject, relation) pair with several true objects appears
        # once per object; the model scores depend only on the pair, so
        # with dedup each distinct query is scored once and every row
        # ranks against its query's score row.
        unique_queries, inverse = dedup_rows(queries, dedup)
        scores = model.predict_entities(unique_queries, ts)
        entity_ranks = ranks_from_scores(scores, targets, mask, rows=inverse)

    relation_ranks = None
    if evaluate_relations:
        unique_pairs, pair_inverse = dedup_rows(np.stack([s, o], axis=1), dedup)
        rel_scores = model.predict_relations(unique_pairs, ts)
        relation_ranks = ranks_from_scores(rel_scores, r, rows=pair_inverse)

    return TimestampScores(
        ts=ts,
        entity_ranks=entity_ranks,
        relation_ranks=relation_ranks,
        targets=targets,
        base_relations=np.concatenate([r, r]),  # both directions share the base id
    )


def run_protocol(
    model: ExtrapolationModel,
    test_graph: TemporalKG,
    fold: Callable[[TimestampScores], None],
    *,
    setting: str,
    filter_index: Optional[FilterIndex],
    evaluate_relations: bool,
    observe: bool,
    dedup: bool,
    reporter,
) -> None:
    """The score-then-reveal loop behind both evaluation drivers.

    Every non-empty test timestamp's :class:`TimestampScores` reaches
    ``fold`` in timestamp order; with ``observe`` the model then sees
    the timestamp's facts.  A ``reporter`` receives one ``worker`` event
    (scope ``eval``, worker 0) for the pass.  An active span collector
    receives one ``eval_block`` span with a ``score_ts`` child per
    timestamp, under whatever span the caller has open.  Without either,
    the loop records nothing.
    """
    if setting != "raw" and filter_index is None:
        raise ValueError("filtered settings need a FilterIndex over the full graph")
    start = time.perf_counter()
    shards = queries = 0
    timestamps = [int(ts) for ts in test_graph.timestamps]
    traced = tracing.active() is not None
    with (
        tracing.span("eval_block", block=0, timestamps=len(timestamps))
        if traced
        else nullcontext()
    ):
        for ts in timestamps:
            snapshot = test_graph.snapshot(ts)
            with tracing.span("score_ts", ts=ts) if traced else nullcontext():
                scored = score_timestamp(
                    model,
                    snapshot,
                    test_graph.num_relations,
                    setting=setting,
                    filter_index=filter_index,
                    evaluate_relations=evaluate_relations,
                    dedup=dedup,
                )
            if scored is not None:
                fold(scored)
                shards += 1
                queries += len(scored.entity_ranks)
            if observe and len(snapshot.triples):
                model.observe(snapshot)
    if reporter is not None:
        reporter.emit(
            "worker",
            scope="eval",
            worker=0,
            shards=shards,
            seconds=time.perf_counter() - start,
            pid=os.getpid(),
            queries=queries,
        )


def evaluate_extrapolation(
    model: ExtrapolationModel,
    test_graph: TemporalKG,
    setting: str = "raw",
    filter_index: Optional[FilterIndex] = None,
    evaluate_relations: bool = True,
    observe: bool = True,
    *,
    reporter=None,
) -> EvaluationResult:
    """Run the paper's link-prediction protocol over a test graph.

    Parameters
    ----------
    model:
        An :class:`ExtrapolationModel`.
    test_graph:
        Chronologically last slice of the dataset; its timestamps are
        evaluated in order.
    setting:
        ``"raw"`` (paper default), ``"static"`` or ``"time"`` filtering.
    filter_index:
        Required for filtered settings; build it over the *full* dataset.
    evaluate_relations:
        Also run the relation forecasting task (s, ?, o).
    observe:
        Reveal each timestamp's facts to the model after scoring it
        (online continuous training).  Disable for strictly-offline runs
        (Fig. 8 ablation).
    reporter:
        A :class:`~repro.obs.RunReporter` receiving one ``worker`` event
        for the pass.
    """
    entity_acc = RankAccumulator()
    relation_acc = RankAccumulator()

    def fold(scored: TimestampScores) -> None:
        entity_acc.update(scored.entity_ranks)
        if scored.relation_ranks is not None:
            relation_acc.update(scored.relation_ranks)

    run_protocol(
        model,
        test_graph,
        fold,
        setting=setting,
        filter_index=filter_index,
        evaluate_relations=evaluate_relations,
        observe=observe,
        dedup=True,
        reporter=reporter,
    )
    return EvaluationResult(entity=entity_acc.summary(), relation=relation_acc.summary())
