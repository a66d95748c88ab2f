"""Relation Aggregation Module (RAM): Eq. 1–3.

Aggregates, for every relation node of the twin hyperrelation subgraph,
both its adjacent relations and the hyperrelation embeddings on the
connecting edges (relation-aggregating R-GCN, Eq. 1–2), then blends the
aggregated output with the TIM-provided input through an R-GRU (Eq. 3).
This is what lets messages cross the one-hop entity gap between
relations — the fix for the "message islands" problem.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import Tensor
from repro.graph import NUM_HYPERRELATIONS, HyperSnapshot
from repro.graph.plan import MessagePlan
from repro.nn import GRUCell, Module
from repro.obs import tracing
from repro.core.rgcn import RGCNStack


class RelationAggregationModule(Module):
    """Eq. 2–3: ``R_t = R_GRU(RAR_GCN(R_Lstm^t, HR_t), R_Lstm^t)``.

    Parameters
    ----------
    dim:
        Embedding dimensionality ``d``.
    num_layers:
        R-GCN depth (paper: 2).
    dropout:
        Per-layer dropout (paper: 0.2).
    """

    def __init__(
        self,
        dim: int,
        num_layers: int = 2,
        dropout: float = 0.2,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.gcn = RGCNStack(
            2 * NUM_HYPERRELATIONS, dim, num_layers=num_layers, dropout=dropout, rng=rng
        )
        self.gru = GRUCell(dim, dim, rng=rng)
        # Bias the R-GRU update gate toward keeping R_Lstm^t at
        # initialisation, so the aggregated candidate enters as a learned
        # residual refinement rather than immediately overwriting the
        # TIM-evolved relations (stabilises early training).
        hidden = self.gru.hidden_size
        self.gru.bias_ih.data[hidden : 2 * hidden] = 2.0

    def forward(
        self,
        relation_lstm: Tensor,
        hyper_embeddings: Tensor,
        hyper_snapshot: HyperSnapshot,
        plan: Optional[MessagePlan] = None,
    ) -> Tensor:
        """One RAM step: returns the final relation embeddings ``R_t``.

        Parameters
        ----------
        relation_lstm:
            ``R_Lstm^t`` ``(2M, d)`` from the TIM.
        hyper_embeddings:
            ``HR_t`` ``(2H, d)`` from the TIM.
        hyper_snapshot:
            The twin hyperrelation subgraph ``HG_t``.
        plan:
            The hyperedge :class:`~repro.graph.plan.MessagePlan` from
            :class:`~repro.graph.cache.SnapshotCache`; built from
            ``hyper_snapshot`` when omitted.
        """
        if plan is None:
            plan = MessagePlan.build(hyper_snapshot.edges, hyper_snapshot.edge_norm)
        with tracing.span("ram.gcn", edges=len(plan)):
            aggregated = self.gcn(
                relation_lstm, hyper_embeddings, plan.edges, plan.edge_norm, plan=plan
            )
        with tracing.span("ram.gru"):
            return self.gru(aggregated, relation_lstm)
