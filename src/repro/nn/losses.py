"""Loss functions.

The paper trains entity and relation forecasting as N-/M-label
classification with cross entropy over *summed* per-snapshot decoder
probabilities (Eq. 13–14).  :func:`nll_of_summed_probs` implements that
time-variability loss; :func:`cross_entropy` is the ordinary single-logit
version used by the baselines.
"""

from __future__ import annotations

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


def nll_of_summed_probs(probs: Tensor, targets: np.ndarray, eps: float = 1e-12) -> Tensor:
    """Time-variability loss: ``-mean(log(sum_t p_t[target]))``.

    Parameters
    ----------
    probs:
        The stacked ``(T, B, num_classes)`` per-snapshot probabilities
        (already softmax-normalised, Eq. 11–12) of the batched decoder,
        with at least one snapshot.
    targets:
        Ground-truth class index per row.
    """
    if probs.data.ndim != 3 or probs.shape[0] == 0:
        raise ValueError("stacked probabilities must be (T, B, num_classes) with T >= 1")
    targets = np.asarray(targets, dtype=np.int64)
    total = probs.sum(axis=0)
    rows = np.arange(len(targets))
    picked = total[(rows, targets)] + eps
    return -picked.log().mean()

