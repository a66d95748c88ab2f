"""Published evolved-embedding snapshots for decoder-only serving.

RETIA's deployment shape splits cleanly: the expensive recurrent
encoder runs *once per timestamp* (``model.evolve`` over the history
window), and answering a ``(s, r, ?)`` query afterwards is decoder-only
work against the evolved per-snapshot embedding stacks.  A
:class:`SnapshotStore` holds exactly that split's interface:

* :func:`capture` runs the encoder once (under ``no_grad``) and freezes
  the resulting ``(entity_list, relation_list)`` stacks into an
  immutable :class:`EmbeddingSnapshot` — *copies*, so later online
  updates to the model cannot mutate what the query path is reading;
* :meth:`SnapshotStore.publish` atomically swaps the served snapshot
  and resets staleness;
* :meth:`SnapshotStore.mark_stale` records a refresh cycle the store
  missed (failed or still backing off).  The query path keeps serving
  the old snapshot — degraded, never down — and every response carries
  the staleness count so clients can tell.

Staleness semantics (DESIGN.md §8): ``staleness`` is the number of
ingested timestamps not yet reflected in the published snapshot.  It is
monotone non-decreasing between publishes and resets to 0 at each
publish — an invariant ``scripts/check_run_health.py`` replays over the
``request`` event stream.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.autograd import DtypePolicy, Tensor, no_grad


class SnapshotUnavailable(RuntimeError):
    """The store has never been published (server not ready)."""


@dataclass(frozen=True)
class EmbeddingSnapshot:
    """Frozen evolved embedding stacks for one serving timestamp.

    ``entity_list``/``relation_list`` mirror the output of
    :meth:`repro.core.model.RETIA.evolve`: one ``(N, d)`` / ``(2M, d)``
    tensor per historical snapshot in the window (oldest first).
    """

    ts: int
    version: int
    entity_list: Tuple[Tensor, ...]
    relation_list: Tuple[Tensor, ...]
    history_times: Tuple[int, ...]
    created_at: float

    @property
    def window(self) -> int:
        return len(self.entity_list)


def capture(
    model,
    ts: int,
    version: int,
    clock: Callable[[], float] = time.monotonic,
    spill_dir: Optional[str] = None,
) -> EmbeddingSnapshot:
    """Run the encoder once and freeze the evolved stacks for ``ts``.

    The caller is responsible for holding whatever lock protects the
    model against concurrent parameter updates; this function only
    guarantees the *returned* snapshot is decoupled (data copied).

    With ``spill_dir``, each frozen stack is written to a ``.npy`` table
    there (via :class:`repro.scale.EmbeddingStore`) and the snapshot's
    tensors wrap lazy read-only memmaps instead of RAM copies — the
    large-vocabulary serving shape, where the query path reads candidate
    rows straight off disk pages.
    """
    history = model.history_before(ts)
    was_training = getattr(model, "training", False)
    if hasattr(model, "eval"):
        model.eval()
    try:
        with no_grad():
            entity_list, relation_list = model.evolve(history)
    finally:
        if was_training and hasattr(model, "train"):
            model.train()

    def _freeze(kind: str, index: int, tensor: Tensor) -> Tensor:
        if spill_dir is None:
            table = tensor.data.copy()
        else:
            from repro.scale import EmbeddingStore

            path = os.path.join(spill_dir, f"{kind}_v{int(version)}_t{index}.npy")
            table = EmbeddingStore.save(path, tensor.data).data
        # Construct under the table's own dtype so a float32 model
        # publishes float32 stacks, and a spilled memmap is wrapped
        # without copying: rows then load lazily as the decoder
        # gathers them.
        with DtypePolicy(table.dtype):
            return Tensor(table)

    return EmbeddingSnapshot(
        ts=int(ts),
        version=int(version),
        entity_list=tuple(_freeze("entity", i, t) for i, t in enumerate(entity_list)),
        relation_list=tuple(_freeze("relation", i, t) for i, t in enumerate(relation_list)),
        history_times=tuple(int(s.time) for s in history),
        created_at=clock(),
    )


class SnapshotStore:
    """Thread-safe single-slot store of the published serving snapshot."""

    def __init__(self):
        self._lock = threading.Lock()
        self._current: Optional[EmbeddingSnapshot] = None
        self._staleness = 0
        self.publishes = 0

    # ------------------------------------------------------------------
    def publish(self, snapshot: EmbeddingSnapshot) -> None:
        """Swap in a fresh snapshot; staleness resets to 0."""
        with self._lock:
            self._current = snapshot
            self._staleness = 0
            self.publishes += 1

    def mark_stale(self) -> int:
        """Record one more refresh cycle the published snapshot missed."""
        with self._lock:
            self._staleness += 1
            return self._staleness

    def current(self) -> Tuple[EmbeddingSnapshot, int]:
        """The served snapshot and its staleness, read atomically."""
        with self._lock:
            if self._current is None:
                raise SnapshotUnavailable(
                    "no embedding snapshot published yet; the server is not ready"
                )
            return self._current, self._staleness

    @property
    def staleness(self) -> int:
        with self._lock:
            return self._staleness

    @property
    def ready(self) -> bool:
        with self._lock:
            return self._current is not None

    def describe(self) -> dict:
        """Status block for health/readiness probes."""
        with self._lock:
            if self._current is None:
                return {"published": False, "staleness": self._staleness}
            return {
                "published": True,
                "ts": self._current.ts,
                "version": self._current.version,
                "window": self._current.window,
                "staleness": self._staleness,
                "publishes": self.publishes,
            }


def score_entities(model, snapshot: EmbeddingSnapshot, queries, scorer=None) -> "np.ndarray":
    """Decoder-only entity scores ``(B, N)`` from a frozen snapshot.

    Reuses the model's no-grad time-variability decode
    (:meth:`~repro.core.decoder.ConvTransE.summed_probabilities`)
    against the frozen stacks, exactly as ``predict_entities`` does.
    The caller must hold the model lock — the decoder weights are live.

    ``scorer`` (a :class:`repro.scale.CandidateScorer` or spec string)
    swaps the candidate pass onto the scorer seam: query representations
    come from the same stacked decoder pass, but candidate scoring
    streams through the strategy — the route that keeps memory bounded
    when the snapshot's entity stacks are memmap-backed.  ``None``
    keeps the legacy dense matmul, bit for bit.
    """
    import numpy as np  # local: keep module import cost off the hot path

    queries = np.asarray(queries, dtype=np.int64).reshape(-1, 2)
    entity_list = list(snapshot.entity_list)
    relation_list = list(snapshot.relation_list)
    was_training = getattr(model, "training", False)
    if hasattr(model, "eval"):
        model.eval()
    try:
        if scorer is None:
            with no_grad(), model._dtype_policy:
                return model._summed_entity_probabilities(entity_list, relation_list, queries)
        from repro.scale import get_scorer

        strategy = get_scorer(scorer)
        if not model.config.time_variability:
            entity_list, relation_list = entity_list[-1:], relation_list[-1:]
        with no_grad(), model._dtype_policy:
            # Per-stack row gathers (not F.stack) so memmap-backed
            # snapshots never load their full tables for the query side.
            subj = Tensor(np.stack([e.data[queries[:, 0]] for e in entity_list]))
            rel = Tensor(np.stack([r.data[queries[:, 1]] for r in relation_list]))
            reps = model.entity_decoder.queries_stacked(subj, rel).data
        return strategy.sum_probs(reps, [t.data for t in entity_list])
    finally:
        if was_training and hasattr(model, "train"):
            model.train()
