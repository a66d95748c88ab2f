"""Recurrent-evolution baselines: RE-NET (simplified), RGCRN, RE-GCN,
CEN and TiRGN.

RE-GCN is the architectural ancestor RETIA extends: entity evolution via
an R-GCN + GRU per snapshot, relation evolution via mean-pooled adjacent
entities + GRU ("w. MP+LSTM" level in Fig. 6/7 — the level that suffers
from message islands).  RGCRN drops the relation evolution; CEN adds the
time-variability probability ensemble; TiRGN adds a gated global-history
copy distribution on top of RE-GCN's local scores.

The RE-GCN family runs on RETIA's own machinery: its entity step is
RETIA's :class:`~repro.core.eam.EntityAggregationModule` (Eq. 4-6 *is*
the RE-GCN entity step), fed the snapshot's message plan from the shared
:class:`~repro.graph.SnapshotCache`, and the history buffer, stacked
decode, ranking and loss are
:class:`~repro.core.forecaster.EvolutionalForecaster`'s.  Each model
supplies only its parameters and its relation step.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.autograd import Tensor, default_dtype, no_grad
from repro.autograd import functional as F
from repro.baselines.history import _HistoryVocabulary
from repro.core.decoder import ConvTransE
from repro.core.eam import EntityAggregationModule
from repro.core.forecaster import EvolutionalForecaster, SequentialForecaster
from repro.graph import Snapshot, SnapshotArtifacts, TemporalKG
from repro.nn import Embedding, GRUCell, Linear, Parameter, init, losses
from repro.utils import l2_normalize_rows, seeded_rng


class RecurrentEncoderBaseline(EvolutionalForecaster):
    """Shared RE-GCN-style encoder: EAM entity step, GRU relation step.

    Subclasses override :meth:`_relation_step` to choose how relation
    embeddings evolve.  Parameters keep the dtype that is the default
    when the model is built.
    """

    #: Sum decoder probabilities over the evolved history (CEN) or use
    #: only the last snapshot's embeddings (RE-GCN, RGCRN, TiRGN).
    time_variability = False

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int = 32,
        history_length: int = 3,
        num_layers: int = 2,
        dropout: float = 0.2,
        num_kernels: int = 16,
        lambda_entity: float = 0.7,
        seed: int = 0,
    ):
        super().__init__(
            num_entities, num_relations, history_length, lambda_entity, default_dtype()
        )
        rng = seeded_rng(seed)
        self.dim = dim
        self.entity_embedding = Parameter(np.zeros((num_entities, dim)))
        self.relation_embedding = Parameter(np.zeros((2 * num_relations, dim)))
        init.xavier_uniform_(self.entity_embedding, rng=rng)
        init.xavier_uniform_(self.relation_embedding, rng=rng)
        self.eam = EntityAggregationModule(num_relations, dim, num_layers, dropout, rng=rng)
        self.relation_gru = GRUCell(2 * dim, dim, rng=rng)
        self.entity_decoder = ConvTransE(dim, num_kernels, dropout=dropout, rng=rng)
        self.relation_decoder = ConvTransE(dim, num_kernels, dropout=dropout, rng=rng)

    def _relation_step(
        self, artifacts: SnapshotArtifacts, entity_prev: Tensor, relation_prev: Tensor
    ) -> Tensor:
        """RE-GCN relation evolution: GRU([R_0 ; MP(E_{t-1})], R_{t-1})."""
        entities, relations = artifacts.relation_entity_pairs
        pooled = F.segment_mean(
            entity_prev.gather_rows(entities), relations, 2 * self.num_relations
        )
        fused = F.concat([self.relation_embedding, pooled], axis=1)
        return self.relation_gru(fused, relation_prev)

    def _evolve(self, history: List[Snapshot]) -> Tuple[List[Tensor], List[Tensor]]:
        entity = l2_normalize_rows(self.entity_embedding)
        relation = self.relation_embedding
        if not history:
            return [entity], [relation]
        entity_list, relation_list = [], []
        for snapshot in history:
            artifacts = self.snapshot_cache.artifacts(snapshot)
            relation = self._relation_step(artifacts, entity, relation)
            entity = self.eam(entity, relation, snapshot, plan=artifacts.entity_plan)
            entity_list.append(entity)
            relation_list.append(relation)
        return entity_list, relation_list


class REGCN(RecurrentEncoderBaseline):
    """RE-GCN (Li et al. 2021): the skeleton as-is."""


class RGCRN(RecurrentEncoderBaseline):
    """RGCRN (Seo et al. 2018 adapted): entity evolution only — relation
    embeddings stay at their initial values."""

    def _relation_step(self, artifacts, entity_prev, relation_prev) -> Tensor:
        return self.relation_embedding


class CEN(RecurrentEncoderBaseline):
    """CEN (Li et al. 2022): RE-GCN encoding plus the time-variability
    probability ensemble over the evolved history; pairs with online
    continuous training via the Trainer's OnlineAdapter."""

    time_variability = True


class RENet(SequentialForecaster):
    """Simplified RE-NET (Jin et al. 2020): per-entity neighborhood
    aggregation evolved by a GRU, decoded by an MLP.

    The published model samples per-query neighbor sequences; this
    variant aggregates each entity's in-neighborhood per snapshot (the
    same conditioning information) so it runs batched.
    """

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int = 32,
        history_length: int = 3,
        lambda_entity: float = 0.7,
        seed: int = 0,
    ):
        super().__init__(num_entities, num_relations, history_length)
        rng = seeded_rng(seed)
        self.lambda_entity = lambda_entity
        self.entities = Embedding(num_entities, dim, rng=rng)
        self.relations = Embedding(2 * num_relations, dim, rng=rng)
        self.aggregate_gru = GRUCell(dim, dim, rng=rng)
        self.entity_head = Linear(3 * dim, dim, rng=rng)
        self.relation_head = Linear(4 * dim, dim, rng=rng)

    def _context(self, history: List[Snapshot]) -> Tensor:
        """Per-entity temporal context from neighbor-mean aggregation."""
        hidden = Tensor(np.zeros(self.entities.weight.shape))
        for snapshot in history:
            edges = snapshot.edges_with_inverse
            if len(edges):
                messages = self.entities(edges[:, 0]) + self.relations(edges[:, 1])
                pooled = F.segment_mean(messages, edges[:, 2], self.num_entities)
            else:
                pooled = Tensor(np.zeros(self.entities.weight.shape))
            hidden = self.aggregate_gru(pooled, hidden)
        return hidden

    def _entity_logits(self, context: Tensor, queries: np.ndarray) -> Tensor:
        queries = np.asarray(queries, dtype=np.int64)
        fused = F.concat(
            [
                self.entities(queries[:, 0]),
                context.gather_rows(queries[:, 0]),
                self.relations(queries[:, 1]),
            ],
            axis=1,
        )
        return self.entity_head(fused).relu() @ self.entities.weight.T

    def _relation_logits(self, context: Tensor, pairs: np.ndarray) -> Tensor:
        pairs = np.asarray(pairs, dtype=np.int64)
        fused = F.concat(
            [
                self.entities(pairs[:, 0]),
                context.gather_rows(pairs[:, 0]),
                self.entities(pairs[:, 1]),
                context.gather_rows(pairs[:, 1]),
            ],
            axis=1,
        )
        return self.relation_head(fused).relu() @ self.relations.weight[: self.num_relations].T

    def loss_on_snapshot(self, target: Snapshot):
        context = self._context(self.history_before(target.time))
        triples = target.triples
        s, r, o = triples[:, 0], triples[:, 1], triples[:, 2]
        queries = np.concatenate(
            [np.stack([s, r], axis=1), np.stack([o, r + self.num_relations], axis=1)]
        )
        targets = np.concatenate([o, s])
        loss_entity = losses.cross_entropy(self._entity_logits(context, queries), targets)
        loss_relation = losses.cross_entropy(
            self._relation_logits(context, np.stack([s, o], axis=1)), r
        )
        joint = loss_entity * self.lambda_entity + loss_relation * (1 - self.lambda_entity)
        return joint, loss_entity, loss_relation

    def predict_entities(self, queries: np.ndarray, ts: int) -> np.ndarray:
        was_training = self.training
        self.eval()
        with no_grad():
            logits = self._entity_logits(self._context(self.history_before(ts)), queries)
        if was_training:
            self.train()
        return logits.data

    def predict_relations(self, pairs: np.ndarray, ts: int) -> np.ndarray:
        was_training = self.training
        self.eval()
        with no_grad():
            logits = self._relation_logits(self._context(self.history_before(ts)), pairs)
        if was_training:
            self.train()
        return logits.data


class TiRGN(RecurrentEncoderBaseline):
    """TiRGN (Li et al. 2022): RE-GCN local scores gated against a global
    history-repetition distribution.

    The blend ``phi * p_local + (1 - phi) * p_global`` is applied to
    every decode the shared forecaster runs: the training probabilities,
    the no-grad sums and each streamed ranking block.  TiRGN decodes the
    last snapshot only, so blending a sum is blending its one term.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.history_gate = Parameter(np.zeros(1))  # sigmoid -> phi
        self.vocab = _HistoryVocabulary(self.num_entities, self.num_relations)

    def set_history(self, graph: TemporalKG) -> None:
        super().set_history(graph)
        self.vocab = _HistoryVocabulary(self.num_entities, self.num_relations)
        self.vocab.add_graph(graph)

    def record_snapshot(self, snapshot: Snapshot) -> None:
        super().record_snapshot(snapshot)
        self.vocab.add_snapshot(snapshot)

    def _blend(self, local: Tensor, glob: np.ndarray) -> Tensor:
        phi = self.history_gate.sigmoid()
        return local * phi + Tensor(glob) * (1.0 - phi)

    def _entity_probabilities(self, entity_list, relation_list, queries) -> Tensor:
        local = super()._entity_probabilities(entity_list, relation_list, queries)
        return self._blend(local, self.vocab.entity_distribution(queries))

    def _relation_probabilities(self, entity_list, relation_list, pairs) -> Tensor:
        local = super()._relation_probabilities(entity_list, relation_list, pairs)
        return self._blend(local, self.vocab.relation_distribution(pairs))

    def _summed_entity_probabilities(self, entity_list, relation_list, queries, visit=None):
        glob = self.vocab.entity_distribution(queries)
        if visit is None:
            local = super()._summed_entity_probabilities(entity_list, relation_list, queries)
            return self._blend(Tensor(local), glob).data

        def blended(start: int, sums: np.ndarray) -> None:
            visit(start, self._blend(Tensor(sums), glob[start : start + len(sums)]).data)

        return super()._summed_entity_probabilities(
            entity_list, relation_list, queries, visit=blended
        )

    def _summed_relation_probabilities(self, entity_list, relation_list, pairs):
        local = super()._summed_relation_probabilities(entity_list, relation_list, pairs)
        return self._blend(Tensor(local), self.vocab.relation_distribution(pairs)).data
