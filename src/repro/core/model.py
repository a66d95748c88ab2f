"""The full RETIA model: encoder (EAM + RAM + TIM) and decoders.

The class exposes the :class:`~repro.eval.ExtrapolationModel` contract
(``predict_entities`` / ``predict_relations`` / ``observe``) and a
``loss_on_snapshot`` used by the trainer (Eq. 13–14).

Every ablation the paper runs is a constructor switch:

==================  ====================================================
``use_eam=False``   Table VI "wo. EAM" — entities stay at E_0.
``relation_mode``   Fig. 6/7 levels: ``"none"`` (wo. RM, also Table VI
                    "wo. RAM"), ``"mp"`` (w. MP), ``"mp_lstm"``
                    (w. MP+LSTM — the RE-GCN/TiRGN level) and ``"full"``
                    (w. MP+LSTM+Agg — RETIA).
``use_tim=False``   Table IX / Fig. 3-4 "wo. TIM" — EAM and RAM evolve
                    with disconnected relation embeddings.
``hyper_mode``      Fig. 5 levels: ``"none"`` (wo. HRM), ``"hmp"``
                    (w. HMP) and ``"full"`` (w. HMP+HLSTM).
``time_variability``  Sum decoder probabilities over the k historical
                    snapshots (CEN-style, Eq. 13-14) vs. last-only.
==================  ====================================================
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autograd import DtypePolicy, Tensor, no_grad, resolve_dtype
from repro.autograd import functional as F
from repro.core.decoder import ConvTransE
from repro.core.eam import EntityAggregationModule
from repro.core.ram import RelationAggregationModule
from repro.core.tim import TwinInteractModule
from repro.eval.metrics import count_ranks, dedup_rows
from repro.graph import (
    NUM_HYPERRELATIONS,
    HyperSnapshot,
    Snapshot,
    SnapshotArtifacts,
    SnapshotCache,
    TemporalKG,
)
from repro.nn import Module, Parameter, init, losses
from repro.obs import tracing
from repro.utils import l2_normalize_rows, seeded_rng

RELATION_MODES = ("none", "mp", "mp_lstm", "full")
HYPER_MODES = ("none", "hmp", "full")
# Path switches retired once their fast path became the only one;
# checkpoint config blobs written before then still carry them.
RETIRED_CONFIG_KEYS = ("batched_decoder", "fused_cells")


@dataclass(frozen=True)
class RETIAConfig:
    """Hyperparameters and ablation switches for :class:`RETIA`."""

    num_entities: int
    num_relations: int
    dim: int = 32
    history_length: int = 3
    num_layers: int = 2
    dropout: float = 0.2
    num_kernels: int = 24
    kernel_width: int = 3
    lambda_entity: float = 0.7
    use_eam: bool = True
    relation_mode: str = "full"
    use_tim: bool = True
    hyper_mode: str = "full"
    time_variability: bool = True
    seed: int = 0
    # Precision policy for every array the model creates.  The default
    # honours REPRO_DTYPE so a CI leg can run the whole suite under
    # float32 models while raw-autograd tests stay float64.
    dtype: str = field(default_factory=lambda: os.environ.get("REPRO_DTYPE", "float64"))

    def __post_init__(self):
        if self.relation_mode not in RELATION_MODES:
            raise ValueError(f"relation_mode must be one of {RELATION_MODES}")
        if self.hyper_mode not in HYPER_MODES:
            raise ValueError(f"hyper_mode must be one of {HYPER_MODES}")
        if not 0.0 <= self.lambda_entity <= 1.0:
            raise ValueError("lambda_entity must be in [0, 1]")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.history_length < 1:
            raise ValueError("history_length must be >= 1")
        if self.num_kernels < 1:
            raise ValueError("num_kernels must be >= 1")
        # Normalise (and validate) to the canonical dtype name so config
        # equality and checkpoint round-trips are exact.
        object.__setattr__(self, "dtype", resolve_dtype(self.dtype).name)

    @classmethod
    def from_dict(cls, blob: dict) -> "RETIAConfig":
        """Rebuild a config from a checkpoint's JSON config blob.

        Drops the :data:`RETIRED_CONFIG_KEYS` older checkpoints carry;
        any other unknown key still raises ``TypeError``.
        """
        return cls(**{k: v for k, v in blob.items() if k not in RETIRED_CONFIG_KEYS})


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


class RETIA(Module):
    """Relation-Entity Twin-Interact Aggregation (ICDE 2023)."""

    def __init__(self, config: RETIAConfig):
        super().__init__()
        self.config = config
        # Every array the model ever builds — parameters here, activations
        # in the forward entry points below — is created under this policy.
        self._dtype_policy = DtypePolicy(config.dtype)
        rng = seeded_rng(config.seed)
        n, m, d = config.num_entities, config.num_relations, config.dim

        with self._dtype_policy:
            # Input embedding matrices (Table I: E_0, R_0, HR_0).
            self.entity_embedding = Parameter(np.zeros((n, d)))
            self.relation_embedding = Parameter(np.zeros((2 * m, d)))
            self.hyper_embedding = Parameter(np.zeros((2 * NUM_HYPERRELATIONS, d)))
            init.xavier_uniform_(self.entity_embedding, rng=rng)
            init.xavier_uniform_(self.relation_embedding, rng=rng)
            init.xavier_uniform_(self.hyper_embedding, rng=rng)
            # Disconnected relation bank the EAM falls back to when the TIM
            # channel is ablated away (Section IV-D1).
            self.eam_relation_embedding = Parameter(np.zeros((2 * m, d)))
            init.xavier_uniform_(self.eam_relation_embedding, rng=rng)

            self.tim = TwinInteractModule(m, d, rng=rng)
            self.ram = RelationAggregationModule(
                d, num_layers=config.num_layers, dropout=config.dropout, rng=rng
            )
            self.eam = EntityAggregationModule(
                m, d, num_layers=config.num_layers, dropout=config.dropout, rng=rng
            )
            self.entity_decoder = ConvTransE(
                d, config.num_kernels, config.kernel_width, config.dropout, rng=rng
            )
            self.relation_decoder = ConvTransE(
                d, config.num_kernels, config.kernel_width, config.dropout, rng=rng
            )

        self._history: Dict[int, Snapshot] = {}
        # Static per-snapshot structure (hypergraphs, edge normalisers,
        # type-sorted edge views) survives parameter updates, so it lives
        # in a content-keyed cache rather than the per-step graph.
        self.snapshot_cache = SnapshotCache()
        self._predict_cache: Optional[tuple] = None
        self._version = 0

    # ------------------------------------------------------------------
    # History management
    # ------------------------------------------------------------------
    def set_history(self, graph: TemporalKG) -> None:
        """Load the known past (training facts) into the history buffer."""
        self._history = {int(t): graph.snapshot(int(t)) for t in graph.timestamps}
        self._invalidate()

    def record_snapshot(self, snapshot: Snapshot) -> None:
        """Append newly revealed facts (no parameter update)."""
        self.snapshot_cache.invalidate_time(snapshot.time, keep=snapshot)
        self._history[snapshot.time] = snapshot
        self._invalidate()

    def history_before(self, ts: int) -> List[Snapshot]:
        """The last-k known snapshots strictly before ``ts``."""
        times = sorted(t for t in self._history if t < ts)
        return [self._history[t] for t in times[-self.config.history_length :]]

    def _invalidate(self) -> None:
        self._predict_cache = None
        self._version += 1

    def mark_updated(self) -> None:
        """Called by the trainer after an optimizer step."""
        self._invalidate()

    def _hyper(self, snapshot: Snapshot) -> HyperSnapshot:
        return self.snapshot_cache.hyper(snapshot)

    # ------------------------------------------------------------------
    # Encoder: evolve embeddings along a history window
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
        cfg = self.config
        entity = l2_normalize_rows(self.entity_embedding)
        relation = self.relation_embedding
        hyper = self.hyper_embedding
        cell = None
        hyper_cell = None

        if not history:
            return [entity], [relation]

        entity_list: List[Tensor] = []
        relation_list: List[Tensor] = []
        for snapshot in history:
            with tracing.span("hypergraph", time=snapshot.time, facts=len(snapshot)):
                artifacts = self.snapshot_cache.artifacts(snapshot)
            with tracing.span("ram", hyper_edges=len(artifacts.hyper_plan)):
                relation = self._relation_step(
                    snapshot, artifacts, entity, relation, hyper, cell, hyper_cell
                )
            relation, cell, hyper, hyper_cell = relation

            if cfg.use_eam:
                eam_relations = (
                    relation if cfg.use_tim else self.eam_relation_embedding
                )
                with tracing.span("eam", edges=len(artifacts.entity_plan)):
                    entity = self.eam(
                        entity,
                        eam_relations,
                        snapshot,
                        plan=artifacts.entity_plan,
                    )
            # else: entities stay at their (normalised) initial values.

            entity_list.append(entity)
            relation_list.append(relation)
        return entity_list, relation_list

    def _relation_step(
        self,
        snapshot: Snapshot,
        artifacts: SnapshotArtifacts,
        entity_prev: Tensor,
        relation_prev: Tensor,
        hyper_prev: Tensor,
        cell: Optional[Tensor],
        hyper_cell: Optional[Tensor],
    ) -> Tuple[Tensor, Optional[Tensor], Tensor, Optional[Tensor]]:
        """One timestamp of the relation pathway under the active mode.

        Returns ``(R_t, C_t, HR_t, HC_t)``.
        """
        cfg = self.config
        mode = cfg.relation_mode
        hyper_snapshot = artifacts.hyper

        if mode == "none":
            # wo. RM / wo. RAM: relations stay at R_0.
            return self.relation_embedding, cell, hyper_prev, hyper_cell

        if mode == "mp":
            # w. MP: mean-pooled adjacent entities only (no LSTM, no Agg).
            entities, relations = artifacts.relation_entity_pairs
            pooled = F.segment_mean(
                entity_prev.gather_rows(entities), relations, 2 * cfg.num_relations
            )
            return pooled, cell, hyper_prev, hyper_cell

        if not cfg.use_tim:
            # wo. TIM: the RAM evolves relations without entity input and
            # with frozen initial hyperrelation embeddings.
            relation = self.ram(
                relation_prev,
                self.hyper_embedding,
                hyper_snapshot,
                plan=artifacts.hyper_plan,
            )
            return relation, cell, self.hyper_embedding, hyper_cell

        # Eq. 7-8: common association constraints.
        r_mean = self.tim.relation_mean(entity_prev, self.relation_embedding, snapshot)
        if cell is None:
            cell = self.tim.lstm.init_state(relation_prev.shape[0])[1]
        r_lstm, cell = self.tim.lstm(r_mean, (relation_prev, cell))

        if mode == "mp_lstm":
            # The RE-GCN/TiRGN level: stop before hyperrelation aggregation.
            return r_lstm, cell, hyper_prev, hyper_cell

        # mode == "full": hyperrelation pathway feeding the RAM (Eq. 9-10).
        if cfg.hyper_mode == "none":
            hyper_next, hyper_cell_next = self.hyper_embedding, hyper_cell
        elif cfg.hyper_mode == "hmp":
            relations, hyper_types = artifacts.hyper_relation_pairs
            hyper_next = F.segment_mean(
                r_lstm.gather_rows(relations), hyper_types, 2 * NUM_HYPERRELATIONS
            )
            hyper_cell_next = hyper_cell
        else:
            hr_mean = self.tim.hyper_mean(r_lstm, self.hyper_embedding, hyper_snapshot)
            if hyper_cell is None:
                hyper_cell = self.tim.hyper_lstm.init_state(hyper_prev.shape[0])[1]
            hyper_next, hyper_cell_next = self.tim.hyper_lstm(hr_mean, (hyper_prev, hyper_cell))

        relation = self.ram(
            r_lstm,
            hyper_next,
            hyper_snapshot,
            plan=artifacts.hyper_plan,
        )
        return relation, cell, hyper_next, hyper_cell_next

    # ------------------------------------------------------------------
    # Decoding (Eq. 11-12)
    # ------------------------------------------------------------------
    def _decode_window(self, entity_list, relation_list):
        """The snapshots the decoder sums over: all k, or the last only."""
        if not self.config.time_variability:
            return entity_list[-1:], relation_list[-1:]
        return entity_list, relation_list

    def _decoder_span(self, rows: int, entity_list):
        window = len(entity_list) if self.config.time_variability else 1
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
        m = self.config.num_relations
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
        ``(T, B, N)`` tensor, bit-identical to k per-snapshot decoder
        calls (the loop kept as the oracle in ``tests/oracles.py``).
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

    def observe(self, snapshot: Snapshot) -> None:
        """Record revealed facts; online updates are handled by Trainer's
        :class:`~repro.core.trainer.OnlineAdapter`."""
        validate_snapshot_ids(
            snapshot, self.config.num_entities, self.config.num_relations
        )
        self.record_snapshot(snapshot)

    # ------------------------------------------------------------------
    # Resilience support
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """SHA-256 over every parameter's exact bytes.

        Two runs whose fingerprints match are bit-identical — the cheap
        equality the kill/resume drills assert instead of diffing every
        array.
        """
        h = hashlib.sha256()
        for name, param in sorted(self.named_parameters()):
            h.update(name.encode("utf-8"))
            h.update(np.ascontiguousarray(param.data).tobytes())
        return h.hexdigest()

    def parameters_finite(self) -> bool:
        """True when no parameter holds a NaN/Inf entry."""
        return all(bool(np.all(np.isfinite(p.data))) for p in self.parameters())

    # ------------------------------------------------------------------
    # Training loss (Eq. 13-14)
    # ------------------------------------------------------------------
    def loss_on_snapshot(self, target: Snapshot) -> Tuple[Tensor, Tensor, Tensor]:
        """Joint, entity and relation losses for forecasting ``target``.

        Entity queries cover both directions (object and inverse-subject
        forecasting); relation queries use the forward facts.
        """
        cfg = self.config
        history = self.history_before(target.time)
        with self._dtype_policy:
            entity_list, relation_list = self._evolve(history)

            triples = target.triples
            s, r, o = triples[:, 0], triples[:, 1], triples[:, 2]
            queries = np.concatenate(
                [np.stack([s, r], axis=1), np.stack([o, r + cfg.num_relations], axis=1)]
            )
            entity_targets = np.concatenate([o, s])
            entity_probs = self._entity_probabilities(entity_list, relation_list, queries)
            loss_entity = losses.nll_of_summed_probs(entity_probs, entity_targets)

            pairs = np.stack([s, o], axis=1)
            relation_probs = self._relation_probabilities(entity_list, relation_list, pairs)
            loss_relation = losses.nll_of_summed_probs(relation_probs, r)

            joint = loss_entity * cfg.lambda_entity + loss_relation * (1.0 - cfg.lambda_entity)
        return joint, loss_entity, loss_relation
