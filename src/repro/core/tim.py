"""Twin-Interact Module (TIM): Eq. 7–10.

The TIM is the communication channel between entity aggregation and
relation aggregation across timestamps:

* **relation side** — mean-pool the previous timestamp's entity
  embeddings over each relation's immediately-connected entities
  (``E_r^t``), concatenate the first-timestamp relation embeddings
  ``R_0`` (distant-feature preservation) and evolve with an LSTM whose
  hidden state is the RAM's previous output ``R_{t-1}`` (Eq. 7–8);
* **hyperrelation side** — hyper-mean-pool the fresh ``R_Lstm^t`` over
  each hyperrelation's incident relations (``R_hr^t``), concatenate
  ``HR_0`` and evolve with a hyper LSTM (Eq. 9–10).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.graph import NUM_HYPERRELATIONS, HyperSnapshot, Snapshot
from repro.nn import LSTMCell, Module


class TwinInteractModule(Module):
    """Eq. 7–10: evolve relation and hyperrelation embeddings.

    Parameters
    ----------
    num_relations:
        ``M`` (the module operates on the doubled ``2M`` space).
    dim:
        Embedding dimensionality ``d``; the LSTMs map ``2d -> d``.
    """

    def __init__(
        self,
        num_relations: int,
        dim: int,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.num_relations = num_relations
        self.dim = dim
        self.lstm = LSTMCell(2 * dim, dim, rng=rng)
        self.hyper_lstm = LSTMCell(2 * dim, dim, rng=rng)

    # ------------------------------------------------------------------
    # Eq. 7: common association constraints via mean pooling
    # ------------------------------------------------------------------
    def relation_mean(self, entity_prev: Tensor, r0: Tensor, snapshot: Snapshot) -> Tensor:
        """``R_Mean^t = [R_0 ; MP(E_{t-1}, E_r^t)]`` of shape ``(2M, 2d)``."""
        entities, relations = snapshot.relation_entity_pairs
        pooled = F.segment_mean(
            entity_prev.gather_rows(entities), relations, 2 * self.num_relations
        )
        return F.concat([r0, pooled], axis=1)

    # ------------------------------------------------------------------
    # Eq. 9: positional association constraints via hyper mean pooling
    # ------------------------------------------------------------------
    def hyper_mean(self, relation_lstm: Tensor, hr0: Tensor, hyper: HyperSnapshot) -> Tensor:
        """``HR_Mean^t = [HR_0 ; HMP(R_Lstm^t, R_hr^t)]`` of shape ``(2H, 2d)``."""
        relations, hyper_types = hyper.hyper_relation_pairs
        pooled = F.segment_mean(
            relation_lstm.gather_rows(relations), hyper_types, 2 * NUM_HYPERRELATIONS
        )
        return F.concat([hr0, pooled], axis=1)

    # ------------------------------------------------------------------
    # Full step
    # ------------------------------------------------------------------
    def forward(
        self,
        entity_prev: Tensor,
        relation_prev: Tensor,
        relation_cell: Optional[Tensor],
        hyper_prev: Tensor,
        hyper_cell: Optional[Tensor],
        r0: Tensor,
        hr0: Tensor,
        snapshot: Snapshot,
        hyper_snapshot: HyperSnapshot,
    ) -> Tuple[Tensor, Tensor, Tensor, Tensor]:
        """One TIM step at timestamp ``t``.

        Returns ``(R_Lstm^t, C_t, HR_t, HC_t)``: the relation embeddings
        handed to the RAM, the LSTM cell state, and the evolved
        hyperrelation embeddings with their cell state.
        """
        r_mean = self.relation_mean(entity_prev, r0, snapshot)
        if relation_cell is None:
            relation_cell = self.lstm.init_state(relation_prev.shape[0])[1]
        r_lstm, c_next = self.lstm(r_mean, (relation_prev, relation_cell))

        hr_mean = self.hyper_mean(r_lstm, hr0, hyper_snapshot)
        if hyper_cell is None:
            hyper_cell = self.hyper_lstm.init_state(hyper_prev.shape[0])[1]
        hr_next, hc_next = self.hyper_lstm(hr_mean, (hyper_prev, hyper_cell))
        return r_lstm, c_next, hr_next, hc_next
