"""Temporal-knowledge-graph substrate.

A TKG is a sequence of per-timestamp fact subgraphs.  This subpackage
provides the storage (:class:`TemporalKG`), the per-timestamp view
(:class:`Snapshot`) with the inverse-fact convention the paper uses
(2M relations, in-edges only), and the twin hyperrelation subgraph
construction of Algorithm 1 (:func:`build_hyperrelation_graph`).
"""

from repro.graph.quadruple import Quadruple
from repro.graph.snapshot import Snapshot
from repro.graph.tkg import TemporalKG
from repro.graph.cache import SnapshotArtifacts, SnapshotCache
from repro.graph.hypergraph import (
    HYPERRELATION_NAMES,
    NUM_HYPERRELATIONS,
    HyperSnapshot,
    build_hyperrelation_graph,
)

__all__ = [
    "Quadruple",
    "Snapshot",
    "TemporalKG",
    "SnapshotArtifacts",
    "SnapshotCache",
    "HyperSnapshot",
    "build_hyperrelation_graph",
    "HYPERRELATION_NAMES",
    "NUM_HYPERRELATIONS",
]
