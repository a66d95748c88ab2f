"""Feed-forward layers: Linear, Embedding, Conv2d, Dropout, RReLU."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.utils import seeded_rng


class Linear(Module):
    """Affine map ``y = x W^T + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    bias:
        Whether to add a learned bias.
    rng:
        Generator used for reproducible initialisation.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng=None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(np.zeros((out_features, in_features)))
        init.xavier_uniform_(self.weight, rng=rng)
        if bias:
            self.bias = Parameter(np.zeros(out_features))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        """Apply the affine map to the last axis of ``x``."""
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table of ``num_embeddings`` vectors of size ``embedding_dim``."""

    def __init__(self, num_embeddings: int, embedding_dim: int, rng=None):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(np.zeros((num_embeddings, embedding_dim)))
        init.xavier_uniform_(self.weight, rng=rng)

    def forward(self, index) -> Tensor:
        """Look up rows for integer ``index`` (any shape of ids)."""
        return self.weight.gather_rows(np.asarray(index, dtype=np.int64))

    def all(self) -> Tensor:
        """The full embedding matrix as a differentiable tensor."""
        return self.weight


class Conv2d(Module):
    """2D convolution with stride 1 (see :func:`repro.autograd.functional.conv2d`)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: Sequence[int],
        padding: Sequence[int] = (0, 0),
        bias: bool = True,
        rng=None,
    ):
        super().__init__()
        kh, kw = kernel_size
        self.padding = tuple(padding)
        self.weight = Parameter(np.zeros((out_channels, in_channels, kh, kw)))
        init.xavier_uniform_(self.weight, rng=rng)
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        """Convolve ``(B, C_in, H, W)`` input."""
        return F.conv2d(x, self.weight, bias=self.bias, padding=self.padding)


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        # Seeded default so default-constructed models are reproducible
        # end to end (same idiom as RGCNLayer).
        self._rng = rng if rng is not None else seeded_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        """Apply inverted dropout (training mode only)."""
        return F.dropout(x, self.p, training=self.training, rng=self._rng)


class RReLU(Module):
    """Randomized leaky ReLU — the activation RETIA's GCN layers use."""

    def __init__(self, lower: float = 1.0 / 8.0, upper: float = 1.0 / 3.0, rng=None):
        super().__init__()
        self.lower = lower
        self.upper = upper
        self._rng = rng if rng is not None else seeded_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        """Apply RReLU (random slope in training, mean slope in eval)."""
        return F.rrelu(x, self.lower, self.upper, training=self.training, rng=self._rng)

