"""Per-snapshot preprocessing cache for the RETIA encoder hot path.

Every training step re-runs the encoder over the same historical
snapshots, and everything the encoder needs from a snapshot besides the
current embeddings is static: the twin hyperrelation subgraph of
Algorithm 1, the R-GCN message plans of both graphs (type-sorted edges,
the Eq. 1/4 edge normalisers and the hop's planned sums), and the
mean-pooling index pairs of Eq. 7/9.  :class:`SnapshotCache` memoizes
all of it, keyed by snapshot *content* (timestamp, fact count and a
hash of the triples), so offline epochs and online continuous training
both hit the cache while a re-recorded timestamp with different facts
misses it.

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
from repro.graph.plan import MessagePlan
from repro.graph.snapshot import Snapshot


@dataclass(frozen=True)
class SnapshotArtifacts:
    """Everything the encoder precomputes from one snapshot.

    Attributes
    ----------
    hyper:
        The built :class:`HyperSnapshot` (Algorithm 1 output).
    entity_plan:
        The :class:`~repro.graph.plan.MessagePlan` of ``G_t``'s
        inverse-augmented edge list and its Eq. 4 normaliser (EAM).
    hyper_plan:
        The message plan of ``HG_t``'s edge list and its Eq. 1
        normaliser (RAM).
    relation_entity_pairs:
        ``(entity_ids, relation_ids)`` for Eq. 7 mean pooling.
    hyper_relation_pairs:
        ``(relation_ids, hyper_type_ids)`` for Eq. 9 hyper mean pooling.
    """

    hyper: HyperSnapshot
    entity_plan: MessagePlan
    hyper_plan: MessagePlan
    relation_entity_pairs: tuple
    hyper_relation_pairs: tuple

    @staticmethod
    def build(snapshot: Snapshot) -> "SnapshotArtifacts":
        """Run all per-snapshot preprocessing once."""
        hyper = build_hyperrelation_graph(snapshot)
        return SnapshotArtifacts(
            hyper=hyper,
            entity_plan=MessagePlan.build(snapshot.edges_with_inverse, snapshot.edge_norm),
            hyper_plan=MessagePlan.build(hyper.edges, hyper.edge_norm),
            relation_entity_pairs=snapshot.relation_entity_pairs,
            hyper_relation_pairs=hyper.hyper_relation_pairs,
        )


class SnapshotCache:
    """Bounded LRU cache of :class:`SnapshotArtifacts` per snapshot.

    Thread-safe: all LRU-dict mutation (lookups move entries, inserts
    evict) and the cumulative :attr:`hits`/:attr:`misses` counts happen
    under one internal lock, so threads sharing one model cannot corrupt
    the ``OrderedDict`` or lose a count.  **One cache
    per process**: the lock does not (and cannot) span processes, so a
    model copied into another process brings its own cache.
    Pickling/deepcopy drops the lock and recreates a fresh one in the
    copy.

    Parameters
    ----------
    max_entries:
        Upper bound on cached snapshots; the least recently used entry is
        evicted beyond it.  ``0`` disables caching entirely (every lookup
        rebuilds); only the cache's own tests use it.
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

    def invalidate_time(self, ts: int, keep: "Snapshot" = None) -> int:
        """Drop every entry recorded for timestamp ``ts``.

        Called when a snapshot is (re-)recorded so a replaced timestamp
        cannot serve stale structure.  When ``keep`` is the snapshot
        being recorded, an entry whose content key matches it survives —
        re-recording identical facts (the common warm-cache case) keeps
        the already-built artifacts instead of forcing a rebuild.  Returns
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
