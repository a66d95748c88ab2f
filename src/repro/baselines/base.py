"""Shared infrastructure for the baseline families.

:class:`TripleScorer` is the contract every static/interpolation model
implements: batched entity scores for ``(s, r)`` queries (relations in
the doubled ``[0, 2M)`` space, so subject queries are inverse-relation
queries) and batched relation scores for ``(s, o)`` pairs.  Models that
use timestamp features additionally accept a time index, clamped at
prediction to the last *trained* timestamp — which is exactly why
interpolation methods degrade under extrapolation (Section IV-B1).

:class:`StaticTrainer` fits any :class:`TripleScorer` with cross entropy
over the full candidate set and adapts it to the
:class:`~repro.eval.ExtrapolationModel` protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.graph import Snapshot, TemporalKG
from repro.nn import Adam, Module, clip_grad_norm, losses
from repro.utils import seeded_rng


class TripleScorer(Module):
    """Base class for static and interpolation baselines."""

    uses_time = False

    def __init__(self, num_entities: int, num_relations: int):
        super().__init__()
        self.num_entities = num_entities
        self.num_relations = num_relations

    def entity_scores(self, subjects: np.ndarray, relations: np.ndarray, times=None) -> Tensor:
        """``(B, N)`` logits for all candidate objects."""
        raise NotImplementedError

    def relation_scores(self, subjects: np.ndarray, objects: np.ndarray, times=None) -> Tensor:
        """``(B, M)`` logits for all candidate (non-inverse) relations."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # ExtrapolationModel protocol (time ignored / clamped).
    # ------------------------------------------------------------------
    _max_trained_time: int = 0

    def clamp_time(self, ts: int) -> int:
        return min(int(ts), self._max_trained_time)

    def predict_entities(self, queries: np.ndarray, ts: int) -> np.ndarray:
        queries = np.asarray(queries, dtype=np.int64)
        times = np.full(len(queries), self.clamp_time(ts))
        was_training = self.training
        self.eval()
        with no_grad():
            scores = self.entity_scores(queries[:, 0], queries[:, 1], times)
        if was_training:
            self.train()
        return scores.data

    def predict_relations(self, pairs: np.ndarray, ts: int) -> np.ndarray:
        pairs = np.asarray(pairs, dtype=np.int64)
        times = np.full(len(pairs), self.clamp_time(ts))
        was_training = self.training
        self.eval()
        with no_grad():
            scores = self.relation_scores(pairs[:, 0], pairs[:, 1], times)
        if was_training:
            self.train()
        return scores.data

    def observe(self, snapshot: Snapshot) -> None:
        """Static models do not learn online; revealed facts are ignored."""


@dataclass(frozen=True)
class StaticTrainerConfig:
    """Knobs for :class:`StaticTrainer`."""

    epochs: int = 10
    lr: float = 1e-3
    batch_size: int = 256
    grad_clip: float = 1.0
    lambda_entity: float = 0.7
    train_relation_task: bool = True
    seed: int = 0


class StaticTrainer:
    """Fit a :class:`TripleScorer` with full-candidate cross entropy.

    Static models see ``graph.to_static()`` (time removed); interpolation
    models (``uses_time = True``) see the raw quadruples.
    """

    def __init__(self, model: TripleScorer, config: StaticTrainerConfig = StaticTrainerConfig()):
        self.model = model
        self.config = config
        self.optimizer = Adam(model.parameters(), lr=config.lr)
        self._rng = seeded_rng(config.seed)
        self.losses: list = []

    def _training_rows(self, graph: TemporalKG) -> np.ndarray:
        if self.model.uses_time:
            return graph.facts.copy()
        static = graph.to_static()
        times = np.zeros((len(static), 1), dtype=np.int64)
        return np.concatenate([static, times], axis=1)

    def fit(self, graph: TemporalKG) -> "StaticTrainer":
        cfg = self.config
        model = self.model
        model._max_trained_time = int(graph.facts[:, 3].max()) if len(graph) else 0
        rows = self._training_rows(graph)
        m = model.num_relations
        model.train()
        for _ in range(cfg.epochs):
            order = self._rng.permutation(len(rows))
            epoch_loss = 0.0
            batches = 0
            for start in range(0, len(rows), cfg.batch_size):
                batch = rows[order[start : start + cfg.batch_size]]
                s, r, o, t = batch[:, 0], batch[:, 1], batch[:, 2], batch[:, 3]
                # Both query directions, like the evaluation protocol.
                subjects = np.concatenate([s, o])
                relations = np.concatenate([r, r + m])
                targets = np.concatenate([o, s])
                times = np.concatenate([t, t])
                logits = model.entity_scores(subjects, relations, times)
                loss = losses.cross_entropy(logits, targets)
                if cfg.train_relation_task:
                    rel_logits = model.relation_scores(s, o, t)
                    rel_loss = losses.cross_entropy(rel_logits, r)
                    loss = loss * cfg.lambda_entity + rel_loss * (1 - cfg.lambda_entity)
                self.optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(self.optimizer.parameters, cfg.grad_clip)
                self.optimizer.step()
                epoch_loss += loss.item()
                batches += 1
            self.losses.append(epoch_loss / max(1, batches))
        model.eval()
        return self
