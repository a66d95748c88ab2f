"""Reference compositions the production fast paths are checked against.

The model ships one recurrent-cell path (the fused ``F.gru_cell`` /
``F.lstm_cell`` kernels) and one decode path (a single stacked
Conv-TransE pass over the k historical snapshots).  The compositions
they replaced live here, test-only, as bit-exactness oracles:

* :func:`reference_gru_step` / :func:`reference_lstm_step` — the
  ~12-node per-step tape built from elementwise autograd ops;
* :func:`reference_entity_probabilities` /
  :func:`reference_relation_probabilities` — one decoder call per
  historical snapshot, returning a list, summed by
  :func:`reference_sum_probs`.

:func:`use_reference_cells` and :func:`use_reference_decoder` rebind a
``RETIA`` instance onto them, so model-level parity tests compare a
reference-path model against a production one built the same way;
installing :func:`forbidden` over a production kernel proves the
reference run never reaches it.
"""

from __future__ import annotations

from functools import partial
from typing import List

import numpy as np

from repro.autograd import Tensor
from repro.nn.rnn import GRUCell, LSTMCell


def forbidden(*args, **kwargs):
    """Stand-in for a production kernel the reference run must not call."""
    raise AssertionError("the reference path reached a production kernel")


# ----------------------------------------------------------------------
# Recurrent cells
# ----------------------------------------------------------------------
def reference_gru_step(cell: GRUCell, x: Tensor, h: Tensor) -> Tensor:
    """One GRU step as the per-op composition ``F.gru_cell`` fuses."""
    gates_x = x @ cell.weight_ih.T + cell.bias_ih
    gates_h = h @ cell.weight_hh.T + cell.bias_hh
    hs = cell.hidden_size
    r = (gates_x[:, :hs] + gates_h[:, :hs]).sigmoid()
    z = (gates_x[:, hs : 2 * hs] + gates_h[:, hs : 2 * hs]).sigmoid()
    n = (gates_x[:, 2 * hs :] + r * gates_h[:, 2 * hs :]).tanh()
    return (1.0 - z) * n + z * h


def reference_lstm_step(cell: LSTMCell, x: Tensor, state=None):
    """One LSTM step as the per-op composition ``F.lstm_cell`` fuses,
    gate-saturation probing included."""
    if state is None:
        state = cell.init_state(x.shape[0])
    h, c = state
    gates = x @ cell.weight_ih.T + cell.bias_ih + h @ cell.weight_hh.T + cell.bias_hh
    hs = cell.hidden_size
    i = gates[:, :hs].sigmoid()
    f = gates[:, hs : 2 * hs].sigmoid()
    g = gates[:, 2 * hs : 3 * hs].tanh()
    o = gates[:, 3 * hs :].sigmoid()
    if cell.collect_gate_stats:
        cell._record_gate_stats(i.data, f.data, o.data)
    c_next = f * c + i * g
    h_next = o * c_next.tanh()
    return h_next, c_next


def use_reference_cells(model):
    """Route every GRU/LSTM cell in ``model``'s tree through the oracle."""
    for module in model.modules():
        if isinstance(module, GRUCell):
            object.__setattr__(module, "forward", partial(reference_gru_step, module))
        elif isinstance(module, LSTMCell):
            object.__setattr__(module, "forward", partial(reference_lstm_step, module))
    return model


# ----------------------------------------------------------------------
# Time-variability decode
# ----------------------------------------------------------------------
def reference_entity_probabilities(model, entity_list, relation_list, queries) -> List[Tensor]:
    """One ``(B, N)`` entity probability tensor per historical snapshot."""
    if not model.config.time_variability:
        entity_list, relation_list = entity_list[-1:], relation_list[-1:]
    queries = np.asarray(queries, dtype=np.int64)
    probs = []
    for entity, relation in zip(entity_list, relation_list):
        subj = entity.gather_rows(queries[:, 0])
        rel = relation.gather_rows(queries[:, 1])
        probs.append(model.entity_decoder.probabilities(subj, rel, entity))
    return probs


def reference_relation_probabilities(model, entity_list, relation_list, pairs) -> List[Tensor]:
    """One ``(B, M)`` relation probability tensor per historical snapshot."""
    if not model.config.time_variability:
        entity_list, relation_list = entity_list[-1:], relation_list[-1:]
    pairs = np.asarray(pairs, dtype=np.int64)
    m = model.config.num_relations
    probs = []
    for entity, relation in zip(entity_list, relation_list):
        subj = entity.gather_rows(pairs[:, 0])
        obj = entity.gather_rows(pairs[:, 1])
        probs.append(model.relation_decoder.probabilities(subj, obj, relation[:m]))
    return probs


def reference_sum_probs(probs: List[Tensor]) -> np.ndarray:
    """Sequential sum of per-snapshot probabilities."""
    total = probs[0].data.copy()
    for p in probs[1:]:
        total += p.data
    return total


def use_reference_decoder(model):
    """Route ``model``'s decode through the per-snapshot loop."""
    object.__setattr__(
        model, "_entity_probabilities", partial(reference_entity_probabilities, model)
    )
    object.__setattr__(
        model, "_relation_probabilities", partial(reference_relation_probabilities, model)
    )
    object.__setattr__(model, "_sum_probs", reference_sum_probs)
    return model
