"""Minimal neural-network layer library over :mod:`repro.autograd`.

Provides the PyTorch-like building blocks the RETIA reproduction needs:
``Module``/``Parameter`` bookkeeping, dense and embedding layers, gated
recurrent cells (GRU/LSTM), 2D convolution, dropout, the RReLU
activation the paper uses, weight initialisers, the Adam optimizer and
loss functions.
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers import (
    Conv2d,
    Dropout,
    Embedding,
    Linear,
    RReLU,
)
from repro.nn.rnn import GRUCell, LSTMCell
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn import init, losses

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "Conv2d",
    "Dropout",
    "RReLU",
    "GRUCell",
    "LSTMCell",
    "Adam",
    "clip_grad_norm",
    "init",
    "losses",
]
