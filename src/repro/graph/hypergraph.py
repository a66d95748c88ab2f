"""Twin hyperrelation subgraph construction (Algorithm 1 of the paper).

For each snapshot we build a graph whose *nodes are the snapshot's
(doubled) relations* and whose edges are typed by the four positional
hyperrelations:

=========  ==============================================================
``o-s``    the object of relation ``r_s`` is the subject of ``r_o``
``s-o``    the subject of ``r_s`` is the object of ``r_o``
``o-o``    ``r_s`` and ``r_o`` share a common object
``s-s``    ``r_s`` and ``r_o`` share a common subject
=========  ==============================================================

The adjacency of each hyperrelation type is a sparse product of the
relation-subject / relation-object incidence matrices (``RO @ RS^T``
etc.), with the diagonal of ``o-o``/``s-s`` masked out to avoid
self-loop relation nodes.  Inverse hyperedges (types 4–7) are appended
so that, as with entities, only in-edges need aggregating — hence
``2H = 8`` edge types for the paper's ``H = 4``.
"""

from __future__ import annotations

from functools import cached_property
from typing import List

import numpy as np
from scipy import sparse

from repro.graph.snapshot import Snapshot

#: Canonical ordering of the four positional hyperrelations.
HYPERRELATION_NAMES = ("o-s", "s-o", "o-o", "s-s")

#: ``H`` in the paper.
NUM_HYPERRELATIONS = len(HYPERRELATION_NAMES)


class HyperSnapshot:
    """The twin hyperrelation subgraph ``HG_t`` of a snapshot ``G_t``.

    Attributes
    ----------
    edges:
        ``(E, 3)`` int array of ``(r_src, hyper_type, r_dst)`` where
        ``hyper_type`` is in ``[0, 2H)``; types ``>= H`` are the inverse
        hyperedges.
    num_relation_nodes:
        Number of relation nodes, i.e. ``2M``.
    """

    def __init__(self, edges: np.ndarray, num_relation_nodes: int, ts: int):
        self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
        self.num_relation_nodes = int(num_relation_nodes)
        self.time = int(ts)

    def __len__(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"HyperSnapshot(t={self.time}, hyperedges={len(self)})"

    @property
    def is_empty(self) -> bool:
        """True when the snapshot produced no hyperedges."""
        return len(self.edges) == 0

    @cached_property
    def edge_norm(self) -> np.ndarray:
        """Per-edge ``1 / c_{r_o, hr}`` normaliser (Eq. 1).

        The snapshot is immutable, so the normaliser is computed once and
        cached on the instance (it used to be recomputed per access).
        """
        if self.is_empty:
            return np.zeros(0)
        keys = self.edges[:, 2] * (2 * NUM_HYPERRELATIONS) + self.edges[:, 1]
        _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        return 1.0 / counts[inverse]

    @cached_property
    def hyper_relation_pairs(self) -> tuple:
        """``(relation_ids, hyper_type_ids)`` for hyper mean pooling (Eq. 9).

        The paper's ``R_hr^t``: relations immediately connected to each
        hyperrelation regardless of direction.  Pairs come sorted by
        relation, then hyper type: the order of the 1-D key
        ``relation * 2H + hyper_type``.
        """
        if self.is_empty:
            return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        src, htype, dst = self.edges[:, 0], self.edges[:, 1], self.edges[:, 2]
        width = 2 * NUM_HYPERRELATIONS
        keys = np.unique(np.concatenate([src, dst]) * width + np.concatenate([htype, htype]))
        return (keys // width, keys % width)


def _incidence_matrices(snapshot: Snapshot) -> tuple:
    """Binary relation-subject (RS) and relation-object (RO) incidences.

    Stored as int32 so the products of Algorithm 1, which count shared
    entities, cannot wrap: a count that wrapped to 0 would drop the
    hyperedge it witnesses.

    Algorithm 1 traverses the *original* quadruples of ``G_t`` (not the
    inverse-augmented edge list): building the incidences over the
    doubled relations would add a trivial ``o-s`` edge from every
    relation to its own inverse and a redundant typed copy of every real
    hyperedge, drowning the informative structure.  The row space is
    still ``[0, 2M)`` so hyperedge indices address the full relation
    embedding matrix; rows ``[M, 2M)`` are simply empty (inverse
    relations evolve through the TIM and the R-GRU self path).
    """
    triples = snapshot.triples
    num_rel = 2 * snapshot.num_relations
    num_ent = snapshot.num_entities
    if not len(triples):
        empty = sparse.csr_matrix((num_rel, num_ent), dtype=np.int32)
        return empty, empty
    ones = np.ones(len(triples), dtype=np.int32)
    rs = sparse.csr_matrix(
        (ones, (triples[:, 1], triples[:, 0])), shape=(num_rel, num_ent), dtype=np.int32
    )
    ro = sparse.csr_matrix(
        (ones, (triples[:, 1], triples[:, 2])), shape=(num_rel, num_ent), dtype=np.int32
    )
    # Binarise: multiple witnesses of the same incidence collapse to 1.
    rs.data[:] = 1
    ro.data[:] = 1
    return rs, ro


def build_hyperrelation_graph(snapshot: Snapshot) -> HyperSnapshot:
    """Run Algorithm 1: construct ``HG_t`` for a snapshot ``G_t``.

    Returns a :class:`HyperSnapshot` whose edges contain both the four
    forward hyperrelation types and their inverses (types 4–7).
    """
    rs, ro = _incidence_matrices(snapshot)
    num_rel = 2 * snapshot.num_relations

    # Adjacency products per Algorithm 1. Entry (i, j) > 0 means the
    # hyperrelation holds from relation i (r_s) to relation j (r_o).
    adjacency: List[sparse.csr_matrix] = [
        ro @ rs.T,  # o-s
        rs @ ro.T,  # s-o
        ro @ ro.T,  # o-o
        rs @ rs.T,  # s-s
    ]
    # Sorted column indices give o-o and s-s edges in row-major order;
    # their diagonals are masked out below to prevent self-loop relation
    # nodes (Algorithm 1, lines 11 and 14).
    adjacency[2].sort_indices()
    adjacency[3].sort_indices()

    blocks = []
    for htype, matrix in enumerate(adjacency):
        coo = matrix.tocoo()
        mask = coo.data != 0
        if htype >= 2:
            mask &= coo.row != coo.col
        src, dst = coo.row[mask], coo.col[mask]
        if not len(src):
            continue
        types = np.full(len(src), htype, dtype=np.int64)
        blocks.append(np.stack([src, types, dst], axis=1))
        # Inverse hyperedge (r_o, hyper-r^{-1}, r_s).
        inv_types = types + NUM_HYPERRELATIONS
        blocks.append(np.stack([dst, inv_types, src], axis=1))

    if blocks:
        edges = np.concatenate(blocks, axis=0)
    else:
        edges = np.zeros((0, 3), dtype=np.int64)
    return HyperSnapshot(edges, num_relation_nodes=num_rel, ts=snapshot.time)
