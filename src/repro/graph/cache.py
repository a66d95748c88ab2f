"""Per-snapshot preprocessing cache for the RETIA encoder hot path.

Every training step re-runs the encoder over the same historical
snapshots, and everything the encoder needs from a snapshot besides the
current embeddings is static: the twin hyperrelation subgraph of
Algorithm 1, the Eq. 1/4 edge normalisers, the type-sorted edge views
the fused R-GCN kernel consumes, and the mean-pooling index pairs of
Eq. 7/9.  :class:`SnapshotCache` memoizes all of it, keyed by snapshot
*content* (timestamp, fact count and a hash of the triples), so offline
epochs and online continuous training both hit the cache while a
re-recorded timestamp with different facts misses it.

The cache is bounded (LRU over ``max_entries``) and can be cleared or
invalidated per timestamp explicitly.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.graph.hypergraph import HyperSnapshot, build_hyperrelation_graph
from repro.graph.snapshot import Snapshot


def _sorted_by_type(edges: np.ndarray, edge_norm: np.ndarray) -> tuple:
    """Stable-sort an ``(E, 3)`` edge list (and its norm) by edge type."""
    if not len(edges):
        return edges, edge_norm
    order = np.argsort(edges[:, 1], kind="stable")
    return np.ascontiguousarray(edges[order]), np.ascontiguousarray(edge_norm[order])


@dataclass(frozen=True)
class SnapshotArtifacts:
    """Everything the encoder precomputes from one snapshot.

    Attributes
    ----------
    hyper:
        The built :class:`HyperSnapshot` (Algorithm 1 output).
    entity_edges, entity_edge_norm:
        ``G_t``'s inverse-augmented edge list sorted by relation type,
        with the aligned Eq. 4 normaliser — ready for the fused R-GCN.
    hyper_edges, hyper_edge_norm:
        ``HG_t``'s edge list sorted by hyperrelation type, with the
        aligned Eq. 1 normaliser.
    relation_entity_pairs:
        ``(entity_ids, relation_ids)`` for Eq. 7 mean pooling.
    hyper_relation_pairs:
        ``(relation_ids, hyper_type_ids)`` for Eq. 9 hyper mean pooling.
    """

    hyper: HyperSnapshot
    entity_edges: np.ndarray
    entity_edge_norm: np.ndarray
    hyper_edges: np.ndarray
    hyper_edge_norm: np.ndarray
    relation_entity_pairs: tuple
    hyper_relation_pairs: tuple

    @staticmethod
    def build(snapshot: Snapshot) -> "SnapshotArtifacts":
        """Run all per-snapshot preprocessing once."""
        hyper = build_hyperrelation_graph(snapshot)
        entity_edges, entity_edge_norm = _sorted_by_type(
            snapshot.edges_with_inverse, snapshot.edge_norm
        )
        hyper_edges, hyper_edge_norm = _sorted_by_type(hyper.edges, hyper.edge_norm)
        return SnapshotArtifacts(
            hyper=hyper,
            entity_edges=entity_edges,
            entity_edge_norm=entity_edge_norm,
            hyper_edges=hyper_edges,
            hyper_edge_norm=hyper_edge_norm,
            relation_entity_pairs=snapshot.relation_entity_pairs,
            hyper_relation_pairs=hyper.hyper_relation_pairs,
        )


class SnapshotCache:
    """Bounded LRU cache of :class:`SnapshotArtifacts` per snapshot.

    Thread-safe: all LRU-dict mutation (lookups move entries, inserts
    evict) happens under one internal lock, matching
    :class:`~repro.obs.MetricsRegistry`'s discipline, so threads
    sharing one model cannot corrupt the ``OrderedDict``.  **One cache
    per process**: the lock does not (and cannot) span processes, so
    sharded-eval pool workers must each own their model copy and its
    cache — never a cache reached through shared memory.
    Pickling/deepcopy (which is how those copies are made) drops the
    lock and recreates a fresh one in the copy.

    Parameters
    ----------
    max_entries:
        Upper bound on cached snapshots; the least recently used entry is
        evicted beyond it.  ``0`` disables caching entirely (every lookup
        rebuilds), which the benchmarks use for before/after timing.
    """

    def __init__(self, max_entries: int = 512):
        if max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Tuple[int, int, bytes], SnapshotArtifacts]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __getstate__(self) -> dict:
        # Locks neither pickle nor deepcopy; each copy gets its own.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    @staticmethod
    def _key(snapshot: Snapshot) -> Tuple[int, int, bytes]:
        digest = hashlib.blake2b(
            np.ascontiguousarray(snapshot.triples).tobytes(), digest_size=16
        ).digest()
        return (snapshot.time, len(snapshot), digest)

    def artifacts(self, snapshot: Snapshot) -> SnapshotArtifacts:
        """The cached (or freshly built) artifacts for ``snapshot``."""
        if self.max_entries == 0:
            with self._lock:
                self.misses += 1
            return SnapshotArtifacts.build(snapshot)
        key = self._key(snapshot)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry
            self.misses += 1
        # Build outside the lock: artifacts are a pure function of the
        # snapshot, so a racing duplicate build wastes work but cannot
        # produce divergent entries; first insert wins.
        entry = SnapshotArtifacts.build(snapshot)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                return existing
            self._entries[key] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return entry

    def hyper(self, snapshot: Snapshot) -> HyperSnapshot:
        """The memoized Algorithm 1 hypergraph for ``snapshot``."""
        return self.artifacts(snapshot).hyper

    def warm(self, snapshots) -> int:
        """Build artifacts for every snapshot up front (cold-start warmup).

        Trainers and the model server call this before their first timed
        step so per-snapshot preprocessing never lands inside a measured
        window.  Returns how many snapshots had to be built (i.e. were
        not already cached); a second warm over the same history is a
        no-op beyond the hash lookups.
        """
        built = 0
        for snapshot in snapshots:
            before = self.misses
            self.artifacts(snapshot)
            if self.misses > before:
                built += 1
        return built

    def publish(self, registry) -> None:
        """Export hit/miss/size counters to a ``MetricsRegistry``.

        Gauges (not counters) so repeated publishes reflect the cache's
        cumulative totals without double counting.
        """
        with self._lock:
            hits, misses, size = self.hits, self.misses, len(self._entries)
        registry.gauge(
            "snapshot_cache_hits", help="Cumulative snapshot cache hits."
        ).set(float(hits))
        registry.gauge(
            "snapshot_cache_misses", help="Cumulative snapshot cache misses."
        ).set(float(misses))
        registry.gauge(
            "snapshot_cache_entries", help="Snapshots currently cached."
        ).set(float(size))

    def invalidate_time(self, ts: int, keep: "Snapshot" = None) -> int:
        """Drop every entry recorded for timestamp ``ts``.

        Called when a snapshot is (re-)recorded so a replaced timestamp
        cannot serve stale structure.  When ``keep`` is the snapshot
        being recorded, an entry whose content key matches it survives —
        re-recording identical facts (the common warm-cache case) keeps
        the prebuilt artifacts instead of forcing a rebuild.  Returns
        the number of entries dropped.
        """
        keep_key = self._key(keep) if keep is not None else None
        with self._lock:
            stale = [
                key for key in self._entries if key[0] == ts and key != keep_key
            ]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
