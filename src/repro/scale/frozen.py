"""A decoder-only model over a frozen, possibly memmap-backed window.

Large-vocabulary evaluation does not need the recurrent encoder in the
loop: the serving layer (PR 7) already decodes against a *captured*
evolved window, and the same shape makes the entity axis scalable —
evolve once, spill the per-snapshot entity/relation stacks to
:class:`~repro.scale.store.EmbeddingStore` ``.npy`` tables, then score
any number of queries through the blocked scorer seam while the tables
stay on disk.

:class:`FrozenWindowModel` implements the ``ExtrapolationModel``
contract over such a window.  ``observe`` is record-only and
time-indexed (``record_snapshot`` / ``history_before``), so sharded
evaluation admits it at any worker count; pickling ships store *paths*
only (each pool worker reopens its memmaps lazily).  The window itself
is static — every timestamp is scored from the same frozen embeddings,
which is exactly the staleness trade the serving layer makes, not the
paper's per-timestamp re-evolution.
"""

from __future__ import annotations

import copy
import os
from typing import List, Optional, Sequence

import numpy as np

from repro.autograd import DtypePolicy, Tensor, no_grad
from repro.eval.metrics import dedup_rows
from repro.scale.scorers import BlockedScorer, CandidateScorer, get_scorer
from repro.scale.store import EmbeddingStore


class FrozenWindowModel:
    """Score queries against frozen evolved embedding stores.

    Parameters
    ----------
    entity_decoder / relation_decoder:
        Conv-TransE decoders (deep-copied, held in eval mode).
    entity_stores / relation_stores:
        One :class:`EmbeddingStore` per historical snapshot in the
        frozen window — ``(N, d)`` entity and ``(2M, d)`` relation rows.
    num_entities / num_relations:
        Vocabulary sizes (``num_relations`` is the base count M).
    scorer:
        Candidate strategy for entity ranking; defaults to the exact
        :class:`~repro.scale.scorers.BlockedScorer`.
    dtype:
        Dtype policy under which decoder passes run.
    """

    def __init__(
        self,
        entity_decoder,
        relation_decoder,
        entity_stores: Sequence[EmbeddingStore],
        relation_stores: Sequence[EmbeddingStore],
        num_entities: int,
        num_relations: int,
        scorer: Optional[CandidateScorer] = None,
        dtype: str = "float64",
    ):
        if len(entity_stores) != len(relation_stores) or not entity_stores:
            raise ValueError("need matching, non-empty entity/relation store windows")
        self.entity_decoder = entity_decoder
        self.relation_decoder = relation_decoder
        self.entity_stores = list(entity_stores)
        self.relation_stores = list(relation_stores)
        self.num_entities = int(num_entities)
        self.num_relations = int(num_relations)
        self.scorer = get_scorer(scorer) if scorer is not None else BlockedScorer()
        self._dtype_policy = DtypePolicy(dtype)
        self._history: List = []
        self._predict_cache = None  # parity with RETIA's worker-reset contract

    # ------------------------------------------------------------------
    # Construction from a live model
    # ------------------------------------------------------------------
    @classmethod
    def freeze(
        cls,
        model,
        ts: int,
        spill_dir: Optional[str] = None,
        scorer: Optional[CandidateScorer] = None,
    ) -> "FrozenWindowModel":
        """Capture ``model``'s evolved window at ``ts`` into stores.

        With ``spill_dir`` the per-snapshot stacks are written to
        ``.npy`` files there and backed by lazy memmaps; otherwise they
        stay in RAM.  Respects ``time_variability=False`` by freezing
        only the last snapshot, matching the model's own decoding.
        """
        entity_list, relation_list = model._evolved_for(ts)
        config = model.config
        if not config.time_variability:
            entity_list, relation_list = entity_list[-1:], relation_list[-1:]

        def _store(kind: str, index: int, tensor: Tensor) -> EmbeddingStore:
            if spill_dir is None:
                return EmbeddingStore.from_array(np.array(tensor.data))
            path = os.path.join(spill_dir, f"{kind}_t{index}.npy")
            return EmbeddingStore.save(path, tensor.data)

        entity_stores = [_store("entity", i, e) for i, e in enumerate(entity_list)]
        relation_stores = [_store("relation", i, r) for i, r in enumerate(relation_list)]
        entity_decoder = copy.deepcopy(model.entity_decoder)
        relation_decoder = copy.deepcopy(model.relation_decoder)
        entity_decoder.eval()
        relation_decoder.eval()
        frozen = cls(
            entity_decoder,
            relation_decoder,
            entity_stores,
            relation_stores,
            num_entities=config.num_entities,
            num_relations=config.num_relations,
            scorer=scorer,
            dtype=config.dtype,
        )
        frozen._history = list(model.history_before(ts))
        return frozen

    def set_scorer(self, scorer) -> None:
        parsed = get_scorer(scorer)
        self.scorer = parsed if parsed is not None else BlockedScorer()

    # ------------------------------------------------------------------
    # Record-only reveal stream (shardable-eval contract)
    # ------------------------------------------------------------------
    def record_snapshot(self, snapshot) -> None:
        self._history.append(snapshot)

    def history_before(self, ts: int) -> List:
        return [s for s in self._history if int(s.time) < int(ts)]

    def observe(self, snapshot) -> None:
        """Record the revealed facts; the frozen window never re-evolves."""
        self.record_snapshot(snapshot)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _entity_query_reps(self, queries: np.ndarray) -> np.ndarray:
        """Stacked ``(T, B, d)`` decoder query representations."""
        with no_grad(), self._dtype_policy:
            subjects = np.stack(
                [np.asarray(store.data[queries[:, 0]]) for store in self.entity_stores]
            )
            relations = np.stack(
                [np.asarray(store.data[queries[:, 1]]) for store in self.relation_stores]
            )
            reps = self.entity_decoder.queries_stacked(Tensor(subjects), Tensor(relations))
        return reps.data

    def _candidate_tables(self) -> List[np.ndarray]:
        return [store.data for store in self.entity_stores]

    def predict_entities(self, queries: np.ndarray, ts: int) -> np.ndarray:
        """Summed candidate probabilities ``(B, N)`` via the scorer seam.

        Materialises the full score block — intended for serve-scale
        batches; large-vocabulary evaluation goes through
        :meth:`rank_entities`, which streams.
        """
        del ts  # the window is frozen: every timestamp sees the same state
        queries = np.asarray(queries, dtype=np.int64)
        reps = self._entity_query_reps(queries)
        return self.scorer.sum_probs(reps, self._candidate_tables())

    def rank_entities(
        self,
        queries: np.ndarray,
        targets: np.ndarray,
        ts: int,
        mask: Optional[np.ndarray] = None,
        dedup: bool = True,
    ) -> np.ndarray:
        """Streamed gold ranks through the configured scorer."""
        queries = np.asarray(queries, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        unique_queries, inverse = dedup_rows(queries, dedup)
        reps = self._entity_query_reps(unique_queries)
        if self.scorer.needs_history:
            self.scorer.sync_history(self.history_before(ts), self.num_relations)
        return self.scorer.ranks(
            reps,
            self._candidate_tables(),
            targets,
            mask=mask,
            inverse=inverse,
            query_ids=unique_queries,
        )

    def predict_relations(self, pairs: np.ndarray, ts: int) -> np.ndarray:
        """Summed relation probabilities ``(B, M)`` in one unblocked pass (M is small)."""
        del ts
        pairs = np.asarray(pairs, dtype=np.int64)
        with no_grad(), self._dtype_policy:
            subjects = np.stack(
                [np.asarray(store.data[pairs[:, 0]]) for store in self.entity_stores]
            )
            objects = np.stack(
                [np.asarray(store.data[pairs[:, 1]]) for store in self.entity_stores]
            )
            reps = self.relation_decoder.queries_stacked(Tensor(subjects), Tensor(objects))
        tables = [np.asarray(store.data[: self.num_relations]) for store in self.relation_stores]
        return BlockedScorer(None, None).sum_probs(reps.data, tables)
