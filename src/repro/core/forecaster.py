"""The forecaster skeleton every extrapolation model shares.

:class:`SequentialForecaster` is the last-k history buffer and the
:class:`~repro.eval.ExtrapolationModel` ``observe`` hook.
:class:`EvolutionalForecaster` adds what RETIA and the RE-GCN family
(RE-GCN, RGCRN, CEN, TiRGN) have in common: the per-snapshot
:class:`~repro.graph.SnapshotCache`, the evolved-embedding cache keyed
on ``(ts, version)``, the stacked time-variability decode (Eq. 11-12),
gold-entity ranking, prediction and the Eq. 13-14 training loss.  A
subclass supplies its parameters, ``time_variability``, the two
``entity_decoder``/``relation_decoder`` Conv-TransE heads and
``_evolve``; :class:`~repro.core.trainer.Trainer` drives any of them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autograd import DtypePolicy, Tensor, no_grad
from repro.autograd import functional as F
from repro.eval.metrics import count_ranks, dedup_rows
from repro.graph import Snapshot, SnapshotCache, TemporalKG
from repro.nn import Module, losses
from repro.obs import tracing


def validate_snapshot_ids(snapshot, num_entities: int, num_relations: int) -> None:
    """Check every fact id in ``snapshot`` against a model's vocab.

    A snapshot constructed with a *larger* declared vocabulary passes its
    own constructor checks but would blow up deep inside an embedding
    gather (``IndexError`` with no ids in the message) when fed to a
    model with a smaller vocabulary.  The observe/ingest paths call this
    first so the failure is loud and actionable: the offending ids and
    the model's bounds, not a stack trace into the aggregator.
    """
    triples = np.asarray(snapshot.triples)
    if triples.size == 0:
        return
    entities = triples[:, [0, 2]].ravel()
    relations = triples[:, 1]
    bad_entities = np.unique(entities[(entities < 0) | (entities >= num_entities)])
    bad_relations = np.unique(relations[(relations < 0) | (relations >= num_relations)])
    if bad_entities.size == 0 and bad_relations.size == 0:
        return
    parts = [f"snapshot t={snapshot.time} has out-of-vocabulary facts:"]
    if bad_entities.size:
        shown = ", ".join(str(i) for i in bad_entities[:8])
        more = "" if bad_entities.size <= 8 else f" (+{bad_entities.size - 8} more)"
        parts.append(
            f"entity ids [{shown}]{more} outside [0, {num_entities})"
        )
    if bad_relations.size:
        shown = ", ".join(str(i) for i in bad_relations[:8])
        more = "" if bad_relations.size <= 8 else f" (+{bad_relations.size - 8} more)"
        parts.append(
            f"relation ids [{shown}]{more} outside [0, {num_relations})"
        )
    raise ValueError(" ".join(parts))


class SequentialForecaster(Module):
    """The last-k history buffer of a history-driven forecaster.

    Subclasses implement ``loss_on_snapshot`` plus the two prediction
    methods; this base keeps the known past, the last-k window, the
    ExtrapolationModel ``observe`` hook and the version counter that
    :meth:`mark_updated` bumps after every parameter update.
    """

    def __init__(self, num_entities: int, num_relations: int, history_length: int = 3):
        super().__init__()
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.history_length = history_length
        self._history: Dict[int, Snapshot] = {}
        self._version = 0

    def set_history(self, graph: TemporalKG) -> None:
        """Load the known past (training facts) into the history buffer."""
        self._history = {int(t): graph.snapshot(int(t)) for t in graph.timestamps}
        self.mark_updated()

    def record_snapshot(self, snapshot: Snapshot) -> None:
        """Append newly revealed facts (no parameter update)."""
        self._history[snapshot.time] = snapshot
        self.mark_updated()

    def history_before(self, ts: int) -> List[Snapshot]:
        """The last-k known snapshots strictly before ``ts``."""
        times = sorted(t for t in self._history if t < ts)
        return [self._history[t] for t in times[-self.history_length :]]

    def mark_updated(self) -> None:
        """Called by the trainer after an optimizer step."""
        self._version += 1

    def observe(self, snapshot: Snapshot) -> None:
        """Record revealed facts; online updates are handled by Trainer's
        :class:`~repro.core.trainer.OnlineAdapter`."""
        validate_snapshot_ids(snapshot, self.num_entities, self.num_relations)
        self.record_snapshot(snapshot)


class EvolutionalForecaster(SequentialForecaster):
    """Evolve embeddings over the last k snapshots, decode with Conv-TransE.

    ``_evolve(history)`` returns per-timestamp lists ``([E_t], [R_t])``
    (the initial embeddings as a single step when ``history`` is empty).
    With ``time_variability`` the decoders sum their probabilities over
    all k evolved snapshots (CEN-style, Eq. 13-14); without it only the
    last snapshot is decoded.  Every array built in a forward entry point
    is created under the dtype policy passed in.
    """

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        history_length: int,
        lambda_entity: float,
        dtype,
    ):
        super().__init__(num_entities, num_relations, history_length)
        self.lambda_entity = lambda_entity
        self._dtype_policy = DtypePolicy(dtype)
        # Static per-snapshot structure (hypergraphs, edge normalisers,
        # type-sorted edge views) survives parameter updates, so it lives
        # in a content-keyed cache rather than the per-step graph.
        self.snapshot_cache = SnapshotCache()
        self._predict_cache: Optional[tuple] = None

    def record_snapshot(self, snapshot: Snapshot) -> None:
        self.snapshot_cache.invalidate_time(snapshot.time, keep=snapshot)
        super().record_snapshot(snapshot)

    def mark_updated(self) -> None:
        self._predict_cache = None
        super().mark_updated()

    # ------------------------------------------------------------------
    # Encoder
    # ------------------------------------------------------------------
    def evolve(self, history: List[Snapshot]) -> Tuple[List[Tensor], List[Tensor]]:
        """Run the recurrent encoder over ``history``.

        Returns per-timestamp lists ``([E_t], [R_t])``; when ``history``
        is empty the initial embeddings are returned as a single step so
        decoding is always possible.
        """
        with self._dtype_policy:
            return self._evolve(history)

    def _evolve(self, history: List[Snapshot]) -> Tuple[List[Tensor], List[Tensor]]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Decoding (Eq. 11-12)
    # ------------------------------------------------------------------
    def _decode_window(self, entity_list, relation_list):
        """The snapshots the decoder sums over: all k, or the last only."""
        if not self.time_variability:
            return entity_list[-1:], relation_list[-1:]
        return entity_list, relation_list

    def _decoder_span(self, rows: int, entity_list):
        window = len(entity_list) if self.time_variability else 1
        return tracing.span("decoder", queries=rows, snapshots=window)

    def _entity_inputs(self, entity_list, relation_list, queries: np.ndarray):
        """Stacked entity-decoder inputs ``(subj, rel, entities)``.

        ``(T, B, d)`` query-side gathers and the ``(T, N, d)`` candidate
        stack over the decode window.
        """
        entity_list, relation_list = self._decode_window(entity_list, relation_list)
        t_rows = np.arange(len(entity_list))[:, None]
        entities = F.stack(entity_list)  # (T, N, d)
        relations = F.stack(relation_list)  # (T, 2M, d)
        subj = entities[(t_rows, queries[:, 0][None, :])]  # (T, B, d)
        rel = relations[(t_rows, queries[:, 1][None, :])]  # (T, B, d)
        return subj, rel, entities

    def _relation_inputs(self, entity_list, relation_list, pairs: np.ndarray):
        """Stacked relation-decoder inputs ``(subj, obj, relations)``."""
        entity_list, relation_list = self._decode_window(entity_list, relation_list)
        m = self.num_relations
        t_rows = np.arange(len(entity_list))[:, None]
        entities = F.stack(entity_list)  # (T, N, d)
        relations = F.stack(relation_list)  # (T, 2M, d)
        subj = entities[(t_rows, pairs[:, 0][None, :])]
        obj = entities[(t_rows, pairs[:, 1][None, :])]
        candidates = relations[(t_rows, np.arange(m)[None, :])]  # (T, M, d)
        return subj, obj, candidates

    def _entity_probabilities(self, entity_list, relation_list, queries: np.ndarray) -> Tensor:
        """Per-historical-snapshot entity probabilities ``p_t^e``.

        One stacked Conv-TransE pass over the k snapshots returns a
        ``(T, B, N)`` tensor, equal to k per-snapshot decoder calls up to
        the GEMM rounding :meth:`~repro.core.decoder.ConvTransE.queries_stacked`
        describes (the loop kept as the oracle in ``tests/oracles.py``).
        """
        queries = np.asarray(queries, dtype=np.int64)
        with self._decoder_span(len(queries), entity_list):
            inputs = self._entity_inputs(entity_list, relation_list, queries)
            return self.entity_decoder.probabilities_multi(*inputs)

    def _relation_probabilities(self, entity_list, relation_list, pairs: np.ndarray) -> Tensor:
        """Per-historical-snapshot relation probabilities ``p_t^r``, ``(T, B, M)``."""
        pairs = np.asarray(pairs, dtype=np.int64)
        with self._decoder_span(len(pairs), entity_list):
            inputs = self._relation_inputs(entity_list, relation_list, pairs)
            return self.relation_decoder.probabilities_multi(*inputs)

    def _summed_entity_probabilities(
        self, entity_list, relation_list, queries: np.ndarray, visit=None
    ) -> Optional[np.ndarray]:
        """No-grad ``(B, N)`` sum of :meth:`_entity_probabilities` over the snapshots.

        ``visit`` streams the sum block by block instead, as in
        :meth:`~repro.core.decoder.ConvTransE.summed_probabilities`.
        """
        queries = np.asarray(queries, dtype=np.int64)
        with self._decoder_span(len(queries), entity_list):
            inputs = self._entity_inputs(entity_list, relation_list, queries)
            return self.entity_decoder.summed_probabilities(*inputs, visit=visit)

    def _summed_relation_probabilities(
        self, entity_list, relation_list, pairs: np.ndarray
    ) -> np.ndarray:
        """No-grad ``(B, M)`` sum of :meth:`_relation_probabilities` over the snapshots."""
        pairs = np.asarray(pairs, dtype=np.int64)
        with self._decoder_span(len(pairs), entity_list):
            inputs = self._relation_inputs(entity_list, relation_list, pairs)
            return self.relation_decoder.summed_probabilities(*inputs)

    # ------------------------------------------------------------------
    # ExtrapolationModel contract
    # ------------------------------------------------------------------
    def _evolved_for(self, ts: int):
        cache = self._predict_cache
        if cache is not None and cache[0] == (ts, self._version):
            return cache[1], cache[2]
        history = self.history_before(ts)
        was_training = self.training
        self.eval()
        with no_grad():
            entity_list, relation_list = self.evolve(history)
        if was_training:
            self.train()
        self._predict_cache = ((ts, self._version), entity_list, relation_list)
        return entity_list, relation_list

    def predict_entities(self, queries: np.ndarray, ts: int) -> np.ndarray:
        """Summed per-snapshot probabilities for all N entities."""
        return self._decode_entities(queries, ts)

    def _decode_entities(self, queries: np.ndarray, ts: int, visit=None) -> Optional[np.ndarray]:
        entity_list, relation_list = self._evolved_for(ts)
        was_training = self.training
        self.eval()
        with no_grad(), self._dtype_policy:
            summed = self._summed_entity_probabilities(
                entity_list, relation_list, queries, visit=visit
            )
        if was_training:
            self.train()
        return summed

    def rank_entities(
        self,
        queries: np.ndarray,
        targets: np.ndarray,
        ts: int,
        mask: Optional[np.ndarray] = None,
        dedup: bool = True,
    ) -> np.ndarray:
        """Average-tie gold ranks for entity queries at timestamp ``ts``.

        Bit for bit ``ranks_from_scores(predict_entities(unique), targets,
        mask, rows=inverse)`` after a query dedup, but each decoder row
        block is ranked while it is still in cache, so the ``(B, N)``
        score matrix is never built: the ranked rows are grouped by their
        score row, and each block's group goes to
        :func:`~repro.eval.metrics.count_ranks`.  ``mask`` uses the
        filtered-setting convention: ``True`` excludes a candidate,
        targets never are.
        """
        queries = np.asarray(queries, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if len(targets) != len(queries):
            raise ValueError("one target per query row is required")
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
        unique_queries, inverse = dedup_rows(queries, dedup)
        if inverse is None:
            inverse = np.arange(len(queries))
        order = np.argsort(inverse, kind="stable")
        # bounds[u] is where score row u's ranked rows start in ``order``.
        bounds = np.searchsorted(inverse[order], np.arange(len(unique_queries) + 1))
        ranks = np.empty(len(targets), dtype=np.float64)

        def visit(start: int, sums: np.ndarray) -> None:
            picked = order[bounds[start] : bounds[start + len(sums)]]
            ranks[picked] = count_ranks(
                sums,
                targets[picked],
                None if mask is None else mask[picked],
                inverse[picked] - start,
            )

        self._decode_entities(unique_queries, ts, visit)
        return ranks

    def predict_relations(self, pairs: np.ndarray, ts: int) -> np.ndarray:
        """Summed per-snapshot probabilities for all M relations."""
        entity_list, relation_list = self._evolved_for(ts)
        was_training = self.training
        self.eval()
        with no_grad(), self._dtype_policy:
            summed = self._summed_relation_probabilities(entity_list, relation_list, pairs)
        if was_training:
            self.train()
        return summed

    # ------------------------------------------------------------------
    # Training loss (Eq. 13-14)
    # ------------------------------------------------------------------
    def loss_on_snapshot(self, target: Snapshot) -> Tuple[Tensor, Tensor, Tensor]:
        """Joint, entity and relation losses for forecasting ``target``.

        Entity queries cover both directions (object and inverse-subject
        forecasting); relation queries use the forward facts.
        """
        history = self.history_before(target.time)
        with self._dtype_policy:
            entity_list, relation_list = self._evolve(history)

            triples = target.triples
            s, r, o = triples[:, 0], triples[:, 1], triples[:, 2]
            queries = np.concatenate(
                [np.stack([s, r], axis=1), np.stack([o, r + self.num_relations], axis=1)]
            )
            entity_targets = np.concatenate([o, s])
            entity_probs = self._entity_probabilities(entity_list, relation_list, queries)
            loss_entity = losses.nll_of_summed_probs(entity_probs, entity_targets)

            pairs = np.stack([s, o], axis=1)
            relation_probs = self._relation_probabilities(entity_list, relation_list, pairs)
            loss_relation = losses.nll_of_summed_probs(relation_probs, r)

            joint = loss_entity * self.lambda_entity + loss_relation * (1.0 - self.lambda_entity)
        return joint, loss_entity, loss_relation
