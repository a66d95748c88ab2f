"""The static half of one R-GCN hop over a snapshot's edge list.

:class:`MessagePlan` holds everything :class:`~repro.core.rgcn.RGCNLayer`
derives from ``(src, type, dst)`` edges rather than from embeddings: the
type-sorted edges and normaliser, and the four sparse sums of a hop
(:class:`~repro.autograd.segments.SparseSum`) -- the backward of the
source and type gathers, the weight-bank gradient, and the destination
segment sum.  :class:`~repro.graph.cache.SnapshotCache` builds one per
graph per snapshot, so every hop, epoch and backward pass reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autograd.segments import SparseSum


@dataclass(frozen=True)
class MessagePlan:
    """Index structures of one edge list (see module docstring).

    Attributes
    ----------
    edges:
        ``(E, 3)`` ``(src, type, dst)`` rows, stably sorted by type.
    edge_norm:
        ``(E,)`` per-edge ``1 / c_{dst,type}``, aligned with ``edges``.
    src_sum, type_sum:
        ``np.add.at`` over ``edges[:, 0]`` and ``edges[:, 1]``: the
        backward of the source and edge-type gathers.
    bank_sum:
        The sum over ``edges[:, 1]``'s runs: the weight-bank gradient of
        :func:`~repro.autograd.functional.typed_linear`.
    dst_sum:
        The segment sum over ``edges[:, 2]``: the aggregation itself.
    """

    edges: np.ndarray
    edge_norm: np.ndarray
    src_sum: SparseSum
    type_sum: SparseSum
    bank_sum: SparseSum
    dst_sum: SparseSum

    @staticmethod
    def build(edges: np.ndarray, edge_norm: np.ndarray) -> "MessagePlan":
        """Sort ``edges`` (and ``edge_norm``) by type and plan their sums."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
        edge_norm = np.asarray(edge_norm)
        if len(edge_norm) != len(edges):
            raise ValueError("edge_norm must have one entry per edge")
        types = edges[:, 1]
        if np.any(types[1:] < types[:-1]):
            order = np.argsort(types, kind="stable")
            edges, edge_norm = edges[order], edge_norm[order]
        edges = np.ascontiguousarray(edges)
        return MessagePlan(
            edges=edges,
            edge_norm=np.ascontiguousarray(edge_norm),
            src_sum=SparseSum.add_at(edges[:, 0]),
            type_sum=SparseSum.add_at(edges[:, 1]),
            bank_sum=SparseSum.reduceat(edges[:, 1]),
            dst_sum=SparseSum.segments(edges[:, 2]),
        )

    def __len__(self) -> int:
        return len(self.edges)
