"""Per-timestamp subgraph view with the paper's inverse-fact convention."""

from __future__ import annotations

from functools import cached_property

import numpy as np


class Snapshot:
    """All facts of one timestamp, as an ``(n, 3)`` array of ``(s, r, o)``.

    The paper appends inverse facts ``(o, r + M, s)`` to every subgraph so
    only in-edges need aggregating; :meth:`edges_with_inverse` materialises
    that doubled edge list.  Normalisation constants and the pooling index
    arrays used by the twin-interact module are exposed as cached
    properties.
    """

    def __init__(self, triples: np.ndarray, num_entities: int, num_relations: int, ts: int):
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        self.triples = triples
        self.num_entities = int(num_entities)
        self.num_relations = int(num_relations)
        self.time = int(ts)
        if len(triples):
            if triples[:, [0, 2]].max() >= num_entities or triples.min() < 0:
                raise ValueError("entity id out of range")
            if triples[:, 1].max() >= num_relations:
                raise ValueError("relation id out of range")

    def __len__(self) -> int:
        return len(self.triples)

    def __repr__(self) -> str:
        return f"Snapshot(t={self.time}, facts={len(self)})"

    @property
    def is_empty(self) -> bool:
        """True when the timestamp has no facts."""
        return len(self.triples) == 0

    # ------------------------------------------------------------------
    # Edge lists
    # ------------------------------------------------------------------
    @cached_property
    def edges_with_inverse(self) -> np.ndarray:
        """``(2n, 3)`` array of ``(src, rel, dst)`` including inverse facts.

        Original fact ``(s, r, o)`` contributes the in-edge ``s -> o`` with
        relation ``r``; the inverse contributes ``o -> s`` with relation
        ``r + M``.  Relations hence range over ``[0, 2M)``.
        """
        if self.is_empty:
            return np.zeros((0, 3), dtype=np.int64)
        s, r, o = self.triples[:, 0], self.triples[:, 1], self.triples[:, 2]
        forward = np.stack([s, r, o], axis=1)
        backward = np.stack([o, r + self.num_relations, s], axis=1)
        return np.concatenate([forward, backward], axis=0)

    @cached_property
    def edge_norm(self) -> np.ndarray:
        """Per-edge ``1 / c_{dst, rel}`` normaliser (Eq. 1 and 4).

        ``c_{o,r}`` is the number of neighbours of destination ``o``
        connected through relation ``r``.
        """
        edges = self.edges_with_inverse
        if not len(edges):
            return np.zeros(0)
        keys = edges[:, 2] * (2 * self.num_relations) + edges[:, 1]
        _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        return 1.0 / counts[inverse]

    @cached_property
    def active_entities(self) -> np.ndarray:
        """Sorted unique entity ids that appear at this timestamp."""
        if self.is_empty:
            return np.zeros(0, dtype=np.int64)
        return np.unique(self.triples[:, [0, 2]])

    @cached_property
    def active_relations(self) -> np.ndarray:
        """Sorted unique (non-inverse) relation ids at this timestamp."""
        if self.is_empty:
            return np.zeros(0, dtype=np.int64)
        return np.unique(self.triples[:, 1])

    # ------------------------------------------------------------------
    # Pooling indices for the twin-interact module
    # ------------------------------------------------------------------
    @cached_property
    def relation_entity_pairs(self) -> tuple:
        """``(entity_ids, relation_ids)`` for mean pooling (Eq. 7).

        For every doubled relation ``r`` in ``[0, 2M)`` the paired entity
        list holds the entities *immediately connected* to ``r`` at this
        timestamp, regardless of edge direction, exactly the paper's
        ``E_r^t``.  Duplicate (entity, relation) incidences are collapsed
        so high-degree entities do not dominate the pool.  Pairs come
        sorted by entity, then relation: the order of the 1-D key
        ``entity * 2M + relation``.
        """
        if self.is_empty:
            return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        s, r, o = self.triples[:, 0], self.triples[:, 1], self.triples[:, 2]
        m = self.num_relations
        entity = np.concatenate([s, o, o, s])
        relation = np.concatenate([r, r, r + m, r + m])
        keys = np.unique(entity * (2 * m) + relation)
        return (keys // (2 * m), keys % (2 * m))
