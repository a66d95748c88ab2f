"""Per-module gradient/parameter probes for training introspection.

When a YAGO run's MRR stalls, run-level telemetry (losses, phase times)
cannot say *why*: did the TIM LSTM gates saturate, did the
hyperrelation embeddings collapse, did one module's gradients vanish?
A :class:`ProbeSuite` hooks into ``Trainer.fit`` and, on a configurable
cadence of global batches, measures

* **per-module gradient norms** — parameters grouped by their top-level
  module (``tim``, ``ram``, ``eam``, the decoders, the embedding
  matrices), so a vanishing pathway is attributable;
* **update-to-weight ratios** — ``||ΔW|| / ||W||`` per group, the
  classic learning-dynamics health signal (~1e-3 is healthy, ~0 means
  frozen, ~1 means thrashing);
* **embedding-norm drift** — mean row L2 norm of the entity / relation
  / hyperrelation matrices, plus the delta since the previous probe and
  since initialisation (collapse shows up as norms racing to 0);
* **TIM LSTM gate saturation** — the fraction of sigmoid gate entries
  pinned against 0/1 in the twin-interact LSTMs (saturated gates stop
  gradient flow through the recurrence).

Each firing emits one schema-validated ``probe`` event through an
attached :class:`~repro.obs.report.RunReporter` (``check_run_health.py``
checks its cadence and finiteness) and keeps the record on
:attr:`ProbeSuite.last_probe`.  The no-probe path costs ``Trainer.fit`` a single ``is None`` check per batch, and
off-cadence batches cost one modulo — the encoder budget gate keeps
both honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class ProbeConfig:
    """Knobs for :class:`ProbeSuite`."""

    #: Fire on global batches divisible by this (1 = every batch).
    every_batches: int = 10
    #: Embedding parameters tracked for norm drift (missing names are
    #: skipped, so the config works across ablation variants).
    embeddings: Tuple[str, ...] = (
        "entity_embedding",
        "relation_embedding",
        "hyper_embedding",
    )

    def __post_init__(self):
        if self.every_batches < 1:
            raise ValueError("every_batches must be >= 1")


def _group_norm(arrays: List[np.ndarray]) -> float:
    return math.sqrt(sum(float(np.sum(a * a)) for a in arrays))


def _mean_row_norm(data: np.ndarray) -> float:
    if data.ndim < 2:
        return float(np.linalg.norm(data))
    return float(np.mean(np.linalg.norm(data, axis=-1)))


class ProbeSuite:
    """Model introspection hooks for one trainer/optimizer pair.

    Lifecycle per probed batch (driven by ``Trainer.fit``):

    1. :meth:`arm` — decides whether this global batch fires; when it
       does, gate-stat collection is switched on in the TIM LSTMs so
       the upcoming forward pass records saturation fractions;
    2. :meth:`before_step` — snapshots per-group weights (cheap at
       probe cadence, never on the common path);
    3. :meth:`after_step` — reads gradients (still present after the
       guarded step), computes all probe measurements, emits the
       ``probe`` event, and disarms collection.
    """

    def __init__(
        self,
        model,
        optimizer,
        config: ProbeConfig = ProbeConfig(),
        reporter=None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.config = config
        self.reporter = reporter
        self.fired = 0
        self.last_probe: Optional[dict] = None
        self._groups = self._group_parameters(model)
        self._snapshots: Optional[Dict[str, List[np.ndarray]]] = None
        self._armed = False
        self._initial_norms = self._embedding_norms()
        self._previous_norms = dict(self._initial_norms)

    # ------------------------------------------------------------------
    # Structure discovery
    # ------------------------------------------------------------------
    @staticmethod
    def _group_parameters(model) -> Dict[str, List[Tuple[str, object]]]:
        """Parameters keyed by their top-level module / attribute name."""
        groups: Dict[str, List[Tuple[str, object]]] = {}
        for name, param in model.named_parameters():
            groups.setdefault(name.split(".", 1)[0], []).append((name, param))
        return groups

    def _gate_cells(self) -> Dict[str, object]:
        """The TIM's LSTM cells, when the model has them."""
        cells = {}
        tim = getattr(self.model, "tim", None)
        for attr in ("lstm", "hyper_lstm"):
            cell = getattr(tim, attr, None)
            if cell is not None and hasattr(cell, "collect_gate_stats"):
                cells[attr] = cell
        return cells

    def _embedding_norms(self) -> Dict[str, float]:
        norms = {}
        for name in self.config.embeddings:
            param = getattr(self.model, name, None)
            if param is not None and hasattr(param, "data"):
                norms[name] = _mean_row_norm(param.data)
        return norms

    # ------------------------------------------------------------------
    # Per-batch hooks
    # ------------------------------------------------------------------
    def arm(self, global_batch: int) -> bool:
        """Enable collection when ``global_batch`` is on cadence."""
        if global_batch % self.config.every_batches:
            return False
        for cell in self._gate_cells().values():
            cell.collect_gate_stats = True
        self._armed = True
        return True

    def before_step(self) -> None:
        """Snapshot per-group weights so the update norm is measurable."""
        self._snapshots = {
            group: [param.data.copy() for _, param in params]
            for group, params in self._groups.items()
        }

    def after_step(self, epoch: int, global_batch: int, stepped: bool) -> dict:
        """Measure, emit and disarm; returns the probe record."""
        modules: Dict[str, dict] = {}
        total_sq = 0.0
        snapshots = self._snapshots or {}
        for group, params in self._groups.items():
            grads = [p.grad for _, p in params if p.grad is not None]
            grad_norm = _group_norm(grads) if grads else 0.0
            weight_norm = _group_norm([p.data for _, p in params])
            before = snapshots.get(group)
            if before is not None:
                update_norm = _group_norm([p.data - old for (_, p), old in zip(params, before)])
            else:
                update_norm = 0.0
            total_sq += grad_norm * grad_norm
            modules[group] = {
                "grad_norm": grad_norm,
                "weight_norm": weight_norm,
                "update_ratio": update_norm / (weight_norm + 1e-12),
            }

        embeddings: Dict[str, dict] = {}
        for name, norm in self._embedding_norms().items():
            embeddings[name] = {
                "mean_norm": norm,
                "drift": norm - self._previous_norms.get(name, norm),
                "total_drift": norm - self._initial_norms.get(name, norm),
            }
            self._previous_norms[name] = norm

        gates: Dict[str, dict] = {}
        for name, cell in self._gate_cells().items():
            stats = cell.pop_gate_stats()
            if stats is not None:
                gates[name] = stats

        record = {
            "epoch": epoch,
            "global_batch": global_batch,
            "cadence": self.config.every_batches,
            "stepped": bool(stepped),
            "grad_norm": math.sqrt(total_sq),
            "modules": modules,
            "embeddings": embeddings,
            "gates": gates,
        }
        self.fired += 1
        self.last_probe = record
        self._snapshots = None
        self._armed = False
        if self.reporter is not None:
            self.reporter.emit("probe", **record)
        return record

    def disarm(self) -> None:
        """Cancel an armed probe (e.g. the batch never reached the step)."""
        for cell in self._gate_cells().values():
            cell.pop_gate_stats()
        self._snapshots = None
        self._armed = False
