"""Fault-tolerant training runtime.

The paper's protocol (Section IV-A4) leans on long multi-epoch runs
with early stopping plus online continuous training during evaluation —
workloads where a mid-epoch crash or one diverging batch used to cost
the whole run.  This package makes runs recoverable:

* :mod:`~repro.resilience.runstate` — the versioned :class:`RunState`
  schema (parameters, optimizer moments, rng states, epoch position,
  log, early-stop bookkeeping, best-state snapshot);
* :mod:`~repro.resilience.checkpoint` — atomic, checksummed, rotating
  keep-N checkpoints with corrupt-file fallback;
* :mod:`~repro.resilience.sentinel` — NaN/Inf sentinels with parameter
  rollback and learning-rate backoff;
* :mod:`~repro.resilience.interrupt` — SIGINT/SIGTERM → final
  checkpoint → resumable exit;
* :mod:`~repro.resilience.faults` — deterministic fault injectors used
  by the tests and the ``repro.cli drill`` command.

:class:`ResilienceConfig` bundles the runtime knobs the trainer takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.resilience.checkpoint import (
    CheckpointCorruptError,
    CheckpointManager,
    load_run_state,
    read_payload,
    write_payload,
)
from repro.resilience.faults import (
    FaultInjector,
    RefreshFault,
    ServeFaultInjector,
    SimulatedCrash,
    flip_bit,
    truncate_file,
)
from repro.resilience.interrupt import (
    EXIT_RESUMABLE,
    GracefulInterrupt,
    TrainingInterrupted,
)
from repro.resilience.runstate import (
    RUNSTATE_VERSION,
    STATUS_COMPLETED,
    STATUS_INTERRUPTED,
    STATUS_RUNNING,
    RunState,
    RunStateError,
)
from repro.resilience.sentinel import NonFiniteGuard, SentinelConfig


@dataclass(frozen=True)
class ResilienceConfig:
    """Runtime knobs for a fault-tolerant :class:`~repro.core.Trainer`.

    ``checkpoint_dir=None`` disables checkpointing (sentinels still
    run); ``checkpoint_every_batches=0`` checkpoints at epoch
    boundaries only, ``>=1`` additionally checkpoints every that many
    batches for mid-epoch kill recovery.
    """

    checkpoint_dir: Optional[str] = None
    keep: int = 3
    checkpoint_every_batches: int = 0
    handle_signals: bool = True
    backoff_patience: int = 3
    backoff_factor: float = 0.5
    min_lr: float = 1e-6

    def __post_init__(self):
        if self.keep < 1:
            raise ValueError(f"keep must be >= 1, got {self.keep}")
        if self.checkpoint_every_batches < 0:
            raise ValueError(
                f"checkpoint_every_batches must be >= 0, got {self.checkpoint_every_batches}"
            )

    def sentinel_config(self) -> SentinelConfig:
        return SentinelConfig(
            backoff_patience=self.backoff_patience,
            backoff_factor=self.backoff_factor,
            min_lr=self.min_lr,
        )


__all__ = [
    "ResilienceConfig",
    "RunState",
    "RunStateError",
    "RUNSTATE_VERSION",
    "STATUS_RUNNING",
    "STATUS_INTERRUPTED",
    "STATUS_COMPLETED",
    "CheckpointManager",
    "CheckpointCorruptError",
    "load_run_state",
    "read_payload",
    "write_payload",
    "NonFiniteGuard",
    "SentinelConfig",
    "GracefulInterrupt",
    "TrainingInterrupted",
    "EXIT_RESUMABLE",
    "FaultInjector",
    "RefreshFault",
    "ServeFaultInjector",
    "SimulatedCrash",
    "truncate_file",
    "flip_bit",
]
