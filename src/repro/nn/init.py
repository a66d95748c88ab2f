"""Weight initialisers (numpy-side, applied in-place to Tensor.data)."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.autograd import Tensor


def _rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng()


def uniform_(tensor: Tensor, low: float = -0.1, high: float = 0.1, rng=None) -> Tensor:
    """Fill in place from U(low, high)."""
    tensor.data[...] = _rng(rng).uniform(low, high, size=tensor.data.shape)
    return tensor


def normal_(tensor: Tensor, mean: float = 0.0, std: float = 0.02, rng=None) -> Tensor:
    """Fill in place from N(mean, std^2)."""
    tensor.data[...] = _rng(rng).normal(mean, std, size=tensor.data.shape)
    return tensor


def _fan_in_out(shape: tuple) -> tuple:
    if len(shape) < 2:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def xavier_uniform_(tensor: Tensor, gain: float = 1.0, rng=None) -> Tensor:
    """Glorot uniform init, the default for R-GCN weight banks."""
    fan_in, fan_out = _fan_in_out(tensor.data.shape)
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return uniform_(tensor, -bound, bound, rng=rng)
