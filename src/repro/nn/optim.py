"""The Adam optimizer the paper trains with (lr=1e-3), and gradient clipping."""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.autograd import Tensor


def clip_grad_norm(parameters: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clip norm (useful for logging divergence).
    """
    params = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


class Optimizer:
    """Base optimizer holding a parameter list."""

    def __init__(self, parameters: Iterable[Tensor]):
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        raise NotImplementedError

    def state_dict(self) -> dict:
        """Copy of the internal state (hyperparameters + moment buffers).

        Buffers are keyed positionally: they align with ``parameters``
        order, which is deterministic for a model built the same way.
        """
        raise NotImplementedError

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        raise NotImplementedError

    def _check_buffers(self, name: str, buffers: List[np.ndarray]) -> List[np.ndarray]:
        if len(buffers) != len(self.parameters):
            raise ValueError(
                f"optimizer state mismatch: {len(buffers)} {name} buffers "
                f"for {len(self.parameters)} parameters"
            )
        restored = []
        for buf, p in zip(buffers, self.parameters):
            arr = np.asarray(buf, dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise ValueError(
                    f"optimizer {name} buffer shape {arr.shape} does not "
                    f"match parameter shape {p.data.shape}"
                )
            restored.append(arr.copy())
        return restored


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba), optional L2 weight decay."""

    def __init__(
        self,
        parameters,
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        """One bias-corrected Adam update."""
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def state_dict(self) -> dict:
        return {
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "weight_decay": self.weight_decay,
            "step_count": self._step_count,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: dict) -> None:
        self.lr = float(state["lr"])
        self.beta1 = float(state["beta1"])
        self.beta2 = float(state["beta2"])
        self.eps = float(state["eps"])
        self.weight_decay = float(state["weight_decay"])
        self._step_count = int(state["step_count"])
        self._m = self._check_buffers("m", state["m"])
        self._v = self._check_buffers("v", state["v"])
