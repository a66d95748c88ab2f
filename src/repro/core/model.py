"""The full RETIA model: encoder (EAM + RAM + TIM) and decoders.

The history buffer, snapshot cache, stacked decode, ranking, the
:class:`~repro.eval.ExtrapolationModel` contract (``predict_entities`` /
``predict_relations`` / ``observe``) and the trainer's
``loss_on_snapshot`` (Eq. 13–14) come from
:class:`~repro.core.forecaster.EvolutionalForecaster`, which the RE-GCN
family shares; this module adds RETIA's parameters and encoder.

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
from typing import List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor, resolve_dtype
from repro.autograd import functional as F
from repro.core.decoder import ConvTransE
from repro.core.eam import EntityAggregationModule
from repro.core.forecaster import EvolutionalForecaster
from repro.core.ram import RelationAggregationModule
from repro.core.tim import TwinInteractModule
from repro.graph import NUM_HYPERRELATIONS, Snapshot, SnapshotArtifacts
from repro.nn import Parameter, init
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


class RETIA(EvolutionalForecaster):
    """Relation-Entity Twin-Interact Aggregation (ICDE 2023)."""

    # The entry points are bound on RETIA itself too, so a profiler that
    # wraps a class's own methods (benchmarks/e2e/layertrace.py) finds them.
    loss_on_snapshot = EvolutionalForecaster.loss_on_snapshot
    predict_entities = EvolutionalForecaster.predict_entities
    predict_relations = EvolutionalForecaster.predict_relations
    rank_entities = EvolutionalForecaster.rank_entities

    def __init__(self, config: RETIAConfig):
        # Every array the model ever builds — parameters here, activations
        # in the forward entry points — is created under config.dtype.
        super().__init__(
            config.num_entities,
            config.num_relations,
            config.history_length,
            config.lambda_entity,
            config.dtype,
        )
        self.config = config
        self.time_variability = config.time_variability
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

    # ------------------------------------------------------------------
    # Encoder: evolve embeddings along a history window
    # ------------------------------------------------------------------
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
