"""Relational GCN message passing shared by the EAM and the RAM.

Equations 1 and 4 of the paper have the same form; only the graph
differs (entity graph with 2M relation types vs. hyperrelation graph with
2H hyperrelation types):

    out_dst = f( sum_{type} 1/c_{dst,type} sum_{src} W_type (src + edge_emb)
                 + W_0 dst )

Edges are ``(src, type, dst)`` index rows; all messages are computed in
one fused pass (gather -> per-type batched transform via
:func:`~repro.autograd.functional.typed_linear` -> normalised
:func:`~repro.autograd.functional.segment_sum`), which is the numpy
formulation of DGL's ``update_all`` without the per-edge-type Python
loop.  The index work of a hop -- the type sort and the sparse sums of
its scatters -- lives in a :class:`~repro.graph.plan.MessagePlan`
that :class:`~repro.graph.cache.SnapshotCache` builds once per snapshot;
callers without one get it built from ``edges`` per call.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.graph.plan import MessagePlan
from repro.nn import Module, Parameter, init
from repro.utils import seeded_rng


class RGCNLayer(Module):
    """One message-passing layer with a per-edge-type weight bank.

    Parameters
    ----------
    num_edge_types:
        Number of distinct edge types (2M for the EAM, 2H for the RAM).
    dim:
        Embedding dimensionality ``d`` (input and output).
    dropout:
        Dropout applied to the activated output (paper: 0.2 per layer).
    activation:
        Whether to apply the RReLU activation ``f``.
    """

    def __init__(
        self,
        num_edge_types: int,
        dim: int,
        dropout: float = 0.2,
        activation: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        # A missing rng must not silently break reproducibility: fall back
        # to the deterministic model-seed default rather than OS entropy.
        rng = rng if rng is not None else seeded_rng(0)
        self.num_edge_types = num_edge_types
        self.dim = dim
        self.activation = activation
        self.dropout = dropout
        self.weight = Parameter(np.zeros((num_edge_types, dim, dim)))
        self.self_weight = Parameter(np.zeros((dim, dim)))
        for t in range(num_edge_types):
            init.xavier_uniform_(_SliceView(self.weight, t), rng=rng)
        init.xavier_uniform_(self.self_weight, rng=rng)
        self._rng = rng

    def forward(
        self,
        nodes: Tensor,
        edge_embeddings: Tensor,
        edges: np.ndarray,
        edge_norm: np.ndarray,
        *,
        plan: Optional[MessagePlan] = None,
    ) -> Tensor:
        """Aggregate one hop.

        Parameters
        ----------
        nodes:
            ``(V, d)`` node embeddings (entities or relation nodes).
        edge_embeddings:
            ``(num_edge_types, d)`` embeddings added to each message
            (relation embeddings in Eq. 4, hyperrelation embeddings in
            Eq. 1).
        edges:
            ``(E, 3)`` rows of ``(src, type, dst)``, in any order.
        edge_norm:
            ``(E,)`` per-edge ``1 / c_{dst,type}``, aligned with ``edges``.
        plan:
            The :class:`~repro.graph.plan.MessagePlan` of ``edges`` and
            ``edge_norm`` (what :class:`~repro.graph.cache.SnapshotCache`
            holds); built from them when omitted.
        """
        num_nodes = nodes.shape[0]
        out = nodes @ self.self_weight  # W_0 self-loop term
        if plan is None:
            plan = MessagePlan.build(edges, edge_norm)
        if len(plan):
            src, types, dst = plan.edges.T
            sources = nodes.gather_rows(src, plan=plan.src_sum)
            messages = sources + edge_embeddings.gather_rows(types, plan=plan.type_sum)
            transformed = F.typed_linear(messages, self.weight, types, plan.bank_sum)
            weighted = transformed * Tensor(plan.edge_norm[:, None])
            out = out + F.segment_sum(weighted, dst, num_nodes, plan.dst_sum)
        if self.activation:
            out = F.rrelu(out, training=self.training, rng=self._rng)
        if self.dropout:
            out = F.dropout(out, self.dropout, training=self.training, rng=self._rng)
        return out


class _SliceView:
    """Adapter letting initialisers write into one bank slice in place."""

    def __init__(self, parameter, index):
        self.data = parameter.data[index]


class RGCNStack(Module):
    """``num_layers`` stacked :class:`RGCNLayer` (paper uses 2)."""

    def __init__(
        self,
        num_edge_types: int,
        dim: int,
        num_layers: int = 2,
        dropout: float = 0.2,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if num_layers < 1:
            raise ValueError("need at least one layer")
        self.num_layers = num_layers
        for i in range(num_layers):
            setattr(
                self,
                f"layer{i}",
                RGCNLayer(num_edge_types, dim, dropout=dropout, rng=rng),
            )

    def forward(self, nodes, edge_embeddings, edges, edge_norm, *, plan=None) -> Tensor:
        """Aggregate ``num_layers`` hops (same arguments as RGCNLayer).

        A missing ``plan`` is built once here and shared by every hop.
        """
        if plan is None:
            plan = MessagePlan.build(edges, edge_norm)
        out = nodes
        for i in range(self.num_layers):
            layer = getattr(self, f"layer{i}")
            out = layer(out, edge_embeddings, plan.edges, plan.edge_norm, plan=plan)
        return out
