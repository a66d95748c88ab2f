"""Non-finite sentinels: skip poisoned batches instead of dying.

A single NaN/Inf loss (a diverging batch, a degenerate snapshot, an
over-aggressive learning rate) must not poison a multi-hour run.
:class:`NonFiniteGuard` wraps the backward/step sequence:

1. loss is checked before ``backward`` — a non-finite loss skips the
   batch with parameters untouched;
2. gradients are checked after ``backward``/clipping — non-finite
   gradients skip the step;
3. parameters are snapshotted before ``step`` and checked after — an
   overflowing update is rolled back (parameters *and* optimizer
   moments) so the model is exactly as it was before the batch.

Repeated consecutive failures trigger learning-rate backoff
(``lr *= backoff_factor`` down to ``min_lr``), the standard response to
a loss surface the current step size cannot traverse.  All counters are
serialisable so they survive a resume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nn import clip_grad_norm


@dataclass(frozen=True)
class SentinelConfig:
    """Knobs for :class:`NonFiniteGuard`."""

    backoff_patience: int = 3
    backoff_factor: float = 0.5
    min_lr: float = 1e-6

    def __post_init__(self):
        if self.backoff_patience < 1:
            raise ValueError("backoff_patience must be >= 1")
        if not 0.0 < self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be in (0, 1)")


class NonFiniteGuard:
    """Guarded optimizer stepping with rollback and LR backoff.

    ``on_skip``, when set, is called with the failure stage (``"loss"``,
    ``"grad"`` or ``"step"``) every time a batch is skipped — the
    observability layer uses it to emit one ``nonfinite_skip`` run-report
    event per skip, so every skip counted on an epoch is explained.
    """

    def __init__(self, optimizer, config: SentinelConfig = SentinelConfig()):
        self.optimizer = optimizer
        self.config = config
        self.total_skips = 0
        self.consecutive = 0
        self.backoffs = 0
        self.last_stage: Optional[str] = None
        self.on_skip = None

    # ------------------------------------------------------------------
    # The guarded step
    # ------------------------------------------------------------------
    def guarded_step(self, loss, grad_clip: Optional[float] = None) -> bool:
        """Backward + clip + step ``loss`` if everything stays finite.

        Returns True when the optimizer stepped, False when the batch
        was skipped (parameters and moments are then bitwise unchanged).
        """
        opt = self.optimizer
        if not np.isfinite(loss.item()):
            self._register_failure("loss")
            return False
        opt.zero_grad()
        loss.backward()
        if grad_clip is not None:
            clip_grad_norm(opt.parameters, grad_clip)
        for p in opt.parameters:
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                self._register_failure("grad")
                return False
        before = [p.data.copy() for p in opt.parameters]
        before_opt = opt.state_dict()
        opt.step()
        for p in opt.parameters:
            if not np.all(np.isfinite(p.data)):
                for param, saved in zip(opt.parameters, before):
                    param.data = saved
                opt.load_state_dict(before_opt)
                self._register_failure("step")
                return False
        self.consecutive = 0
        return True

    def _register_failure(self, stage: str) -> None:
        self.last_stage = stage
        self.total_skips += 1
        self.consecutive += 1
        if self.consecutive >= self.config.backoff_patience:
            backed_off = max(
                self.config.min_lr, self.optimizer.lr * self.config.backoff_factor
            )
            if backed_off < self.optimizer.lr:
                self.optimizer.lr = backed_off
                self.backoffs += 1
            self.consecutive = 0
        if self.on_skip is not None:
            self.on_skip(stage)

    # ------------------------------------------------------------------
    # Resume support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "total_skips": self.total_skips,
            "consecutive": self.consecutive,
            "backoffs": self.backoffs,
        }

    def load_state_dict(self, state: dict) -> None:
        self.total_skips = int(state.get("total_skips", 0))
        self.consecutive = int(state.get("consecutive", 0))
        self.backoffs = int(state.get("backoffs", 0))
