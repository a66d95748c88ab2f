"""History-vocabulary baselines: a nonparametric frequency reference and
CyGNet's copy-generation mechanism (Zhu et al. 2021).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Tuple

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.autograd import functional as F
from repro.core.forecaster import SequentialForecaster
from repro.graph import Snapshot, TemporalKG
from repro.nn import Embedding, Linear, Parameter
from repro.utils import seeded_rng


class _HistoryVocabulary:
    """Counts of historical one-hop repetitions, incrementally updated."""

    def __init__(self, num_entities: int, num_relations: int):
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.object_counts: Dict[Tuple[int, int], Counter] = defaultdict(Counter)
        self.relation_counts: Dict[Tuple[int, int], Counter] = defaultdict(Counter)
        self.entity_popularity = Counter()

    def add_snapshot(self, snapshot: Snapshot) -> None:
        m = self.num_relations
        for s, r, o in snapshot.triples:
            s, r, o = int(s), int(r), int(o)
            self.object_counts[(s, r)][o] += 1
            self.object_counts[(o, r + m)][s] += 1
            self.relation_counts[(s, o)][r] += 1
            self.entity_popularity[s] += 1
            self.entity_popularity[o] += 1

    def add_graph(self, graph: TemporalKG) -> None:
        for t in graph.timestamps:
            self.add_snapshot(graph.snapshot(int(t)))

    def entity_vector(self, subject: int, relation: int) -> np.ndarray:
        vec = np.zeros(self.num_entities)
        for o, c in self.object_counts.get((subject, relation), {}).items():
            vec[o] = c
        return vec

    def relation_vector(self, subject: int, obj: int) -> np.ndarray:
        vec = np.zeros(self.num_relations)
        for r, c in self.relation_counts.get((subject, obj), {}).items():
            vec[r] = c
        return vec

    def entity_distribution(self, queries: np.ndarray) -> np.ndarray:
        """``(B, N)`` repetition counts of each ``(s, r)`` query, normalised
        per row (uniform for a query never seen)."""
        return self._distribution(self.entity_vector, queries, self.num_entities)

    def relation_distribution(self, pairs: np.ndarray) -> np.ndarray:
        """``(B, M)`` counterpart of :meth:`entity_distribution` for ``(s, o)``."""
        return self._distribution(self.relation_vector, pairs, self.num_relations)

    @staticmethod
    def _distribution(vector, rows: np.ndarray, width: int) -> np.ndarray:
        out = []
        for a, b in np.asarray(rows, dtype=np.int64):
            vec = vector(int(a), int(b))
            total = vec.sum()
            out.append(vec / total if total > 0 else np.full(width, 1.0 / width))
        return np.stack(out)

    def popularity_vector(self) -> np.ndarray:
        vec = np.zeros(self.num_entities)
        for e, c in self.entity_popularity.items():
            vec[e] = c
        return vec


class HistoryFrequency:
    """Nonparametric reference: score candidates by historical counts.

    Surprisingly strong on high-recurrence datasets (the same signal
    CyGNet's copy mode and TiRGN's global history exploit); near-chance
    on novel events.  Implements the ExtrapolationModel protocol with no
    trainable parameters.
    """

    def __init__(self, num_entities: int, num_relations: int, popularity_weight: float = 1e-3):
        self.vocab = _HistoryVocabulary(num_entities, num_relations)
        self.popularity_weight = popularity_weight

    def fit(self, graph: TemporalKG) -> "HistoryFrequency":
        self.vocab.add_graph(graph)
        return self

    def predict_entities(self, queries: np.ndarray, ts: int) -> np.ndarray:
        pop = self.vocab.popularity_vector() * self.popularity_weight
        rows = [
            self.vocab.entity_vector(int(s), int(r)) + pop
            for s, r in np.asarray(queries, dtype=np.int64)
        ]
        return np.stack(rows)

    def predict_relations(self, pairs: np.ndarray, ts: int) -> np.ndarray:
        rows = [
            self.vocab.relation_vector(int(s), int(o))
            for s, o in np.asarray(pairs, dtype=np.int64)
        ]
        return np.stack(rows)

    def observe(self, snapshot: Snapshot) -> None:
        self.vocab.add_snapshot(snapshot)


class CyGNet(SequentialForecaster):
    """Copy-generation network: interpolate between a learned generation
    distribution and the historical copy vocabulary.

    The copy mode replays one-hop repetitive facts; the generation mode
    is an embedding scorer for novel facts; a learned gate balances them.
    """

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int = 32,
        history_length: int = 3,
        seed: int = 0,
    ):
        super().__init__(num_entities, num_relations, history_length)
        rng = seeded_rng(seed)
        self.entities = Embedding(num_entities, dim, rng=rng)
        self.relations = Embedding(2 * num_relations, dim, rng=rng)
        self.gen_head = Linear(2 * dim, dim, rng=rng)
        self.rel_head = Linear(2 * dim, dim, rng=rng)
        self.copy_gate = Parameter(np.zeros(1))  # sigmoid -> alpha
        self.vocab = _HistoryVocabulary(num_entities, num_relations)

    # ------------------------------------------------------------------
    def set_history(self, graph: TemporalKG) -> None:
        super().set_history(graph)
        self.vocab = _HistoryVocabulary(self.num_entities, self.num_relations)
        self.vocab.add_graph(graph)

    def record_snapshot(self, snapshot: Snapshot) -> None:
        super().record_snapshot(snapshot)
        self.vocab.add_snapshot(snapshot)

    # ------------------------------------------------------------------
    def _generation_probs(self, queries: np.ndarray) -> Tensor:
        queries = np.asarray(queries, dtype=np.int64)
        fused = F.concat([self.entities(queries[:, 0]), self.relations(queries[:, 1])], axis=1)
        logits = self.gen_head(fused).relu() @ self.entities.weight.T
        return F.softmax(logits, axis=-1)

    def _combined_entity_probs(self, queries: np.ndarray) -> Tensor:
        alpha = self.copy_gate.sigmoid()  # scalar in (0, 1)
        gen = self._generation_probs(queries)
        copy = Tensor(self.vocab.entity_distribution(queries))
        return copy * alpha + gen * (1.0 - alpha)

    def _relation_probs(self, pairs: np.ndarray) -> Tensor:
        pairs = np.asarray(pairs, dtype=np.int64)
        fused = F.concat([self.entities(pairs[:, 0]), self.entities(pairs[:, 1])], axis=1)
        logits = self.rel_head(fused).relu() @ self.relations.weight[: self.num_relations].T
        return F.softmax(logits, axis=-1)

    # ------------------------------------------------------------------
    # Trainer contract
    # ------------------------------------------------------------------
    def loss_on_snapshot(self, target: Snapshot):
        triples = target.triples
        s, r, o = triples[:, 0], triples[:, 1], triples[:, 2]
        queries = np.concatenate(
            [np.stack([s, r], axis=1), np.stack([o, r + self.num_relations], axis=1)]
        )
        targets = np.concatenate([o, s])
        probs = self._combined_entity_probs(queries)
        rows = np.arange(len(targets))
        loss_entity = -(probs[(rows, targets)] + 1e-12).log().mean()
        rel_probs = self._relation_probs(np.stack([s, o], axis=1))
        loss_relation = -(rel_probs[(np.arange(len(r)), r)] + 1e-12).log().mean()
        joint = loss_entity * 0.7 + loss_relation * 0.3
        return joint, loss_entity, loss_relation

    # ------------------------------------------------------------------
    # ExtrapolationModel contract
    # ------------------------------------------------------------------
    def predict_entities(self, queries: np.ndarray, ts: int) -> np.ndarray:
        was_training = self.training
        self.eval()
        with no_grad():
            probs = self._combined_entity_probs(queries)
        if was_training:
            self.train()
        return probs.data

    def predict_relations(self, pairs: np.ndarray, ts: int) -> np.ndarray:
        was_training = self.training
        self.eval()
        with no_grad():
            probs = self._relation_probs(pairs)
        if was_training:
            self.train()
        return probs.data
