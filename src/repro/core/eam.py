"""Entity Aggregation Module (EAM): Eq. 4–6.

The RE-GCN-style evolutional entity encoder: an entity-aggregating R-GCN
over each snapshot (messages ``W_r (e_s + r)`` with per-(dst, r)
normalisation, Eq. 4–5), followed by an R-GRU that blends the aggregated
entities with the previous timestamp's embeddings (Eq. 6).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import Tensor
from repro.graph import Snapshot
from repro.graph.plan import MessagePlan
from repro.nn import GRUCell, Module
from repro.obs import tracing
from repro.core.rgcn import RGCNStack


class EntityAggregationModule(Module):
    """Eq. 5–6: ``E_t = R_GRU(EAR_GCN(E_{t-1}, R_t), E_{t-1})``.

    Parameters
    ----------
    num_relations:
        ``M``; the edge-type bank covers the doubled ``2M`` space.
    dim:
        Embedding dimensionality ``d``.
    num_layers, dropout:
        R-GCN depth and per-layer dropout (paper: 2 and 0.2).
    """

    def __init__(
        self,
        num_relations: int,
        dim: int,
        num_layers: int = 2,
        dropout: float = 0.2,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.gcn = RGCNStack(
            2 * num_relations, dim, num_layers=num_layers, dropout=dropout, rng=rng
        )
        self.gru = GRUCell(dim, dim, rng=rng)

    def forward(
        self,
        entity_prev: Tensor,
        relation_embeddings: Tensor,
        snapshot: Snapshot,
        plan: Optional[MessagePlan] = None,
    ) -> Tensor:
        """One EAM step: returns the final entity embeddings ``E_t``.

        Parameters
        ----------
        entity_prev:
            ``E_{t-1}`` ``(N, d)``.
        relation_embeddings:
            ``R_t`` ``(2M, d)`` from the RAM (or a fixed matrix in the
            ablations).
        snapshot:
            The original subgraph ``G_t``.
        plan:
            The snapshot's entity :class:`~repro.graph.plan.MessagePlan`
            from :class:`~repro.graph.cache.SnapshotCache`; built from
            ``snapshot`` when omitted.
        """
        if plan is None:
            plan = MessagePlan.build(snapshot.edges_with_inverse, snapshot.edge_norm)
        with tracing.span("eam.gcn", edges=len(plan)):
            aggregated = self.gcn(
                entity_prev, relation_embeddings, plan.edges, plan.edge_norm, plan=plan
            )
        with tracing.span("eam.gru"):
            return self.gru(aggregated, entity_prev)
