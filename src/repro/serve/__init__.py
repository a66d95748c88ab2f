"""Resilient decoder-only serving for the trained RETIA model.

RETIA's deployment shape splits cleanly: run the expensive recurrent
encoder *once per timestamp* (``model.evolve`` over the history window)
and answer ``(s, r, ?)`` queries afterwards with decoder-only work
against the frozen evolved embeddings.  This package serves that shape
with robustness as the organizing principle — an explicit degradation
ladder (deadlines → load shedding → stale-snapshot serving → ingest
circuit breaker → graceful drain) rather than best-effort behaviour.
See DESIGN.md §8 for the serve robustness contract and the README
"Serving" section for endpoints and flags.

* :mod:`repro.serve.snapshots` — frozen :class:`EmbeddingSnapshot`
  capture and the staleness-accounting :class:`SnapshotStore`;
* :mod:`repro.serve.batcher` — deadline-aware :class:`MicroBatcher`
  with bounded admission (shed-oldest);
* :mod:`repro.serve.breaker` — the ingest :class:`CircuitBreaker`
  (closed→open→half-open, legal transitions enforced);
* :mod:`repro.serve.server` — :class:`ModelServer` composing the above
  with a supervised refresh worker, probes and drain;
* :mod:`repro.serve.loadgen` — open-loop Poisson traffic, its latency
  summary and :func:`run_drill`, the one serve drill, which
  ``repro.cli serve`` runs.
"""

from repro.serve.batcher import (
    SHED_DEADLINE,
    SHED_DRAINING,
    SHED_QUEUE_FULL,
    DeadlineExceeded,
    MicroBatcher,
    ServeRequest,
    Shed,
)
from repro.serve.breaker import (
    LEGAL_TRANSITIONS,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
    CircuitOpenError,
)
from repro.serve.loadgen import (
    DrillResult,
    LoadgenConfig,
    default_chaos_plan,
    run_drill,
    run_loadgen,
    summarize_responses,
)
from repro.serve.server import (
    STATUS_DEADLINE,
    STATUS_ERROR,
    STATUS_INVALID,
    STATUS_OK,
    STATUS_UNAVAILABLE,
    ModelServer,
    ServeConfig,
    ServeResponse,
    select_topk,
    topk_entities,
)
from repro.serve.snapshots import (
    EmbeddingSnapshot,
    SnapshotStore,
    SnapshotUnavailable,
    capture,
    score_entities,
)

__all__ = [
    "SHED_DEADLINE",
    "SHED_DRAINING",
    "SHED_QUEUE_FULL",
    "DeadlineExceeded",
    "MicroBatcher",
    "ServeRequest",
    "Shed",
    "LEGAL_TRANSITIONS",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "CircuitBreaker",
    "CircuitOpenError",
    "DrillResult",
    "LoadgenConfig",
    "default_chaos_plan",
    "run_drill",
    "run_loadgen",
    "summarize_responses",
    "STATUS_DEADLINE",
    "STATUS_ERROR",
    "STATUS_INVALID",
    "STATUS_OK",
    "STATUS_UNAVAILABLE",
    "ModelServer",
    "ServeConfig",
    "ServeResponse",
    "select_topk",
    "topk_entities",
    "EmbeddingSnapshot",
    "SnapshotStore",
    "SnapshotUnavailable",
    "capture",
    "score_entities",
]
