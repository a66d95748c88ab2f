"""Loss functions.

The paper trains entity and relation forecasting as N-/M-label
classification with cross entropy over *summed* per-snapshot decoder
probabilities (Eq. 13–14).  :func:`nll_of_summed_probs` implements that
time-variability loss; :func:`cross_entropy` is the ordinary single-logit
version used by the baselines.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.autograd import Tensor
from repro.autograd import functional as F


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross entropy of integer ``targets`` under ``logits`` rows."""
    targets = np.asarray(targets, dtype=np.int64)
    log_probs = F.log_softmax(logits, axis=-1)
    rows = np.arange(len(targets))
    picked = log_probs[(rows, targets)]
    return -picked.mean()


def nll_of_summed_probs(
    prob_snapshots: Union[Tensor, Sequence[Tensor]],
    targets: np.ndarray,
    eps: float = 1e-12,
) -> Tensor:
    """Time-variability loss: ``-mean(log(sum_t p_t[target]))``.

    Parameters
    ----------
    prob_snapshots:
        Either one ``(B, num_classes)`` probability tensor per historical
        snapshot (already softmax-normalised, Eq. 11–12; the recurrent
        baselines' per-snapshot decoders), or a single stacked
        ``(T, B, num_classes)`` tensor from RETIA's batched decoder — the
        per-snapshot sum then collapses to one ``sum(axis=0)``.
    targets:
        Ground-truth class index per row.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if isinstance(prob_snapshots, Tensor):
        if prob_snapshots.data.ndim != 3:
            raise ValueError("stacked probabilities must be (T, B, num_classes)")
        total = prob_snapshots.sum(axis=0)
    else:
        if not prob_snapshots:
            raise ValueError("need at least one probability snapshot")
        total = prob_snapshots[0]
        for p in prob_snapshots[1:]:
            total = total + p
    rows = np.arange(len(targets))
    picked = total[(rows, targets)] + eps
    return -picked.log().mean()


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Multi-label BCE from logits; ``targets`` is a {0,1} array.

    Uses the stable identity
    ``-[t·log σ(x) + (1-t)·log(1-σ(x))] = softplus(x) - x·t``
    (since ``log σ(x) = -softplus(-x)``, ``log(1-σ(x)) = -softplus(x)``
    and ``softplus(-x) = softplus(x) - x``), so the loss stays exact for
    arbitrarily large |logits| instead of saturating through
    ``sigmoid().clip().log()``.
    """
    targets_t = Tensor(np.asarray(targets, dtype=logits.data.dtype))
    loss = F.softplus(logits) - logits * targets_t
    return loss.mean()
