"""Gated recurrent cells.

RETIA uses two recurrences:

* an **R-GRU** (Eq. 3 and 6 of the paper) that blends the GCN-aggregated
  embeddings with the previous step's embeddings — a standard GRU cell where
  the aggregated matrix is the input and the previous embeddings are the
  hidden state; and
* an **LSTM / hyper LSTM** (Eq. 8 and 10) inside the twin-interact module
  that evolves the mean-pooled (2d-wide) association summaries into d-wide
  relation/hyperrelation embeddings.

Both cells operate on row-batched matrices: input ``(B, input_size)`` and
hidden ``(B, hidden_size)``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.autograd.dtype import default_dtype
from repro.nn import init
from repro.nn.module import Module, Parameter


class GRUCell(Module):
    """Single-step gated recurrent unit.

    ``h' = (1 - z) * n + z * h`` with reset gate ``r``, update gate ``z``
    and candidate ``n = tanh(W_in x + r * (W_hn h))``.

    The step runs through the fused :func:`F.gru_cell` kernel — one
    autograd node, pooled gate buffers, values and gradients bit-identical
    to the ~12-node reference composition kept in ``tests/oracles.py``
    (DESIGN.md §11).
    """

    def __init__(self, input_size: int, hidden_size: int, rng=None):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(np.zeros((3 * hidden_size, input_size)))
        self.weight_hh = Parameter(np.zeros((3 * hidden_size, hidden_size)))
        self.bias_ih = Parameter(np.zeros(3 * hidden_size))
        self.bias_hh = Parameter(np.zeros(3 * hidden_size))
        init.xavier_uniform_(self.weight_ih, rng=rng)
        init.xavier_uniform_(self.weight_hh, rng=rng)

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        """One GRU step: returns the next hidden state."""
        return F.gru_cell(x, h, self.weight_ih, self.weight_hh, self.bias_ih, self.bias_hh)


class LSTMCell(Module):
    """Single-step LSTM; supports ``input_size != hidden_size``.

    The paper feeds ``R_Mean^t ∈ R^{2M×2d}`` in and receives
    ``R_Lstm^t ∈ R^{2M×d}`` out, i.e. ``input_size = 2d`` and
    ``hidden_size = d``.  The paper's stated cell-state width (2d) does not
    match a standard LSTM; as in the released RETIA code we keep the cell
    state at ``hidden_size`` and initialise it to zeros at the first
    timestamp (documented substitution, DESIGN.md §5).

    The step runs through the fused :func:`F.lstm_cell` kernel, whose
    values and gradients are bit-identical to the reference composition
    in ``tests/oracles.py`` (DESIGN.md §11).
    """

    #: Sigmoid outputs within this distance of 0/1 count as saturated
    #: (the probe layer's gate-collapse signal).
    GATE_SATURATION_TAU = 0.05

    def __init__(self, input_size: int, hidden_size: int, rng=None):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(np.zeros((4 * hidden_size, input_size)))
        self.weight_hh = Parameter(np.zeros((4 * hidden_size, hidden_size)))
        self.bias_ih = Parameter(np.zeros(4 * hidden_size))
        self.bias_hh = Parameter(np.zeros(4 * hidden_size))
        init.xavier_uniform_(self.weight_ih, rng=rng)
        init.xavier_uniform_(self.weight_hh, rng=rng)
        # Forget-gate bias of 1 helps early training retain history.
        self.bias_ih.data[hidden_size : 2 * hidden_size] = 1.0
        # Gate-saturation probing (repro.obs.probes): off by default so
        # the uninstrumented forward pays one attribute check, nothing
        # more.  When armed, each forward accumulates the fraction of
        # saturated entries per sigmoid gate into ``_gate_stats``.
        object.__setattr__(self, "collect_gate_stats", False)
        object.__setattr__(self, "_gate_stats", None)
        object.__setattr__(self, "_state_cache", {})

    def init_state(self, batch: int) -> Tuple[Tensor, Tensor]:
        """Zero (h, c) state for ``batch`` rows.

        The zero tensors never require grad and are never mutated, so
        the pair is cached per ``(batch, dtype)`` — every TIM window
        step used to allocate two fresh ``(2M, d)`` arrays here.
        """
        key = (batch, default_dtype().name)
        state = self._state_cache.get(key)
        if state is None:
            state = (
                Tensor(np.zeros((batch, self.hidden_size))),
                Tensor(np.zeros((batch, self.hidden_size))),
            )
            self._state_cache[key] = state
        return state

    def forward(
        self, x: Tensor, state: Optional[Tuple[Tensor, Tensor]] = None
    ) -> Tuple[Tensor, Tensor]:
        """One LSTM step: returns ``(h_next, c_next)``."""
        if state is None:
            state = self.init_state(x.shape[0])
        h, c = state
        hook = self._record_gate_stats if self.collect_gate_stats else None
        return F.lstm_cell(
            x, h, c,
            self.weight_ih, self.weight_hh, self.bias_ih, self.bias_hh,
            gate_hook=hook,
        )

    # ------------------------------------------------------------------
    # Gate-saturation probing
    # ------------------------------------------------------------------
    def _record_gate_stats(self, i: np.ndarray, f: np.ndarray, o: np.ndarray) -> None:
        tau = self.GATE_SATURATION_TAU
        stats = self._gate_stats
        if stats is None:
            stats = {"input": 0.0, "forget": 0.0, "output": 0.0, "calls": 0}
        for name, gate in (("input", i), ("forget", f), ("output", o)):
            stats[name] += float(np.mean((gate < tau) | (gate > 1.0 - tau)))
        stats["calls"] += 1
        object.__setattr__(self, "_gate_stats", stats)

    def pop_gate_stats(self) -> Optional[dict]:
        """Mean saturated fraction per gate since arming; resets the
        accumulator and disables collection."""
        stats = self._gate_stats
        object.__setattr__(self, "_gate_stats", None)
        object.__setattr__(self, "collect_gate_stats", False)
        if not stats or not stats["calls"]:
            return None
        calls = stats["calls"]
        return {
            "input": stats["input"] / calls,
            "forget": stats["forget"] / calls,
            "output": stats["output"] / calls,
            "calls": calls,
        }
