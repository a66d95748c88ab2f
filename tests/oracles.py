"""Reference compositions the production fast paths are checked against.

The model ships one recurrent-cell path (the fused ``F.gru_cell`` /
``F.lstm_cell`` kernels) and one decode path (a single stacked
Conv-TransE pass over the k historical snapshots).  The compositions
they replaced live here, test-only, as bit-exactness oracles:

* :func:`reference_gru_step` / :func:`reference_lstm_step` — the
  ~12-node per-step tape built from elementwise autograd ops;
* :func:`reference_entity_probabilities` /
  :func:`reference_relation_probabilities` — one
  :func:`reference_probabilities` decoder call per historical snapshot,
  returning a list, summed by :func:`reference_sum_probs` and scored by
  :func:`reference_nll_of_summed_probs`;
* :func:`reference_softmax` — the shift / exp / normalise composition
  with a fresh buffer per step, which ``F.softmax`` runs in one;
* :func:`reference_ranks` — the gathered, float64-widened, whole-row
  count ``ranks_from_scores`` replaced with a blocked count in the
  scores' own dtype;
* :func:`reference_typed_linear` / :func:`reference_segment_sum` /
  :func:`reference_conv2d` — the R-GCN and Conv-TransE kernels as plain
  numpy calls (``np.add.at``, ``np.add.reduceat``, batch-first
  ``einsum``) that the planned sparse sums and batch-last ``einsum``
  calls of ``repro.autograd.functional`` repeat bit for bit;
* :func:`reference_sigmoid` / :func:`reference_rrelu_slope` — the
  ``np.where`` selects that ``F._sigmoid_`` and ``F.rrelu`` replaced
  with ``np.maximum``;
* :func:`reference_evaluate` / :func:`reference_diagnose` — the serial
  score-then-reveal drivers, each with its own loop, that
  ``evaluate_extrapolation`` and ``diagnose_extrapolation`` replaced
  with one protocol loop at every worker count;
* :func:`reference_build_hyperrelation_graph` — Algorithm 1 with the
  o-o/s-s diagonals zeroed through a LIL round trip, which
  ``build_hyperrelation_graph`` replaced with a sorted-CSR mask;
* :class:`ReferenceREGCN` / :class:`ReferenceRGCRN` /
  :class:`ReferenceCEN` / :class:`ReferenceTiRGN` — the RE-GCN family
  with its own R-GCN + GRU entity step (a message plan rebuilt per
  snapshot per step), the per-snapshot decode loop and its own loss and
  predict paths, which ``repro.baselines.recurrent`` replaced with
  RETIA's EAM, snapshot cache and stacked decoder.  Their ``state_dict``
  keys are ``entity_gcn.*`` / ``entity_gru.*`` where the production
  models have ``eam.gcn.*`` / ``eam.gru.*`` (:func:`renamed_state`).

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
from scipy import sparse

from repro.autograd import DtypePolicy, Tensor, default_dtype, no_grad
from repro.autograd import functional as F
from repro.baselines.history import _HistoryVocabulary
from repro.core.decoder import ConvTransE
from repro.core.forecaster import SequentialForecaster
from repro.core.rgcn import RGCNStack
from repro.eval.diagnostics import DiagnosticsAccumulators, DiagnosticsReport
from repro.eval.metrics import RankAccumulator
from repro.eval.protocol import EvaluationResult, score_timestamp
from repro.graph.hypergraph import NUM_HYPERRELATIONS
from repro.nn import Parameter, init
from repro.nn.rnn import GRUCell, LSTMCell
from repro.utils import l2_normalize_rows, seeded_rng


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


def reference_sigmoid(z: np.ndarray) -> np.ndarray:
    """The stable logistic as a select: ``1/(1+e)`` or ``e/(1+e)``, ``e = exp(-|z|)``."""
    e = np.exp(-np.abs(z))
    return np.divide(np.where(z >= 0, 1.0, e), 1.0 + e, out=np.empty_like(z))


def reference_rrelu_slope(
    x: np.ndarray, lower: float, upper: float, training: bool, rng=None
) -> np.ndarray:
    """RReLU's per-element slope as a select: 1 where ``x > 0``, else the
    negative slope (sampled from ``rng`` in training, the mean in eval)."""
    if training:
        neg_slope = rng.uniform(lower, upper, size=x.shape)
    else:
        neg_slope = (lower + upper) / 2.0
    return np.where(x > 0, 1.0, neg_slope).astype(x.dtype)


# ----------------------------------------------------------------------
# Time-variability decode
# ----------------------------------------------------------------------
def reference_probabilities(
    decoder: ConvTransE, first: Tensor, second: Tensor, candidates: Tensor
) -> Tensor:
    """One snapshot's ``(B, C)`` softmax scores, the ``p_t`` of Eq. 11-12."""
    return F.softmax(decoder(first, second, candidates), axis=-1)


def reference_nll_of_summed_probs(probs: List[Tensor], targets, eps: float = 1e-12) -> Tensor:
    """``-mean(log(sum_t p_t[target]))`` over a list of ``(B, C)`` tensors,
    summed one snapshot at a time."""
    if not probs:
        raise ValueError("need at least one probability snapshot")
    targets = np.asarray(targets, dtype=np.int64)
    total = probs[0]
    for p in probs[1:]:
        total = total + p
    picked = total[(np.arange(len(targets)), targets)] + eps
    return -picked.log().mean()


def reference_entity_probabilities(model, entity_list, relation_list, queries) -> List[Tensor]:
    """One ``(B, N)`` entity probability tensor per historical snapshot."""
    if not model.time_variability:
        entity_list, relation_list = entity_list[-1:], relation_list[-1:]
    queries = np.asarray(queries, dtype=np.int64)
    probs = []
    for entity, relation in zip(entity_list, relation_list):
        subj = entity.gather_rows(queries[:, 0])
        rel = relation.gather_rows(queries[:, 1])
        probs.append(reference_probabilities(model.entity_decoder, subj, rel, entity))
    return probs


def reference_relation_probabilities(model, entity_list, relation_list, pairs) -> List[Tensor]:
    """One ``(B, M)`` relation probability tensor per historical snapshot."""
    if not model.time_variability:
        entity_list, relation_list = entity_list[-1:], relation_list[-1:]
    pairs = np.asarray(pairs, dtype=np.int64)
    m = model.num_relations
    probs = []
    for entity, relation in zip(entity_list, relation_list):
        subj = entity.gather_rows(pairs[:, 0])
        obj = entity.gather_rows(pairs[:, 1])
        probs.append(reference_probabilities(model.relation_decoder, subj, obj, relation[:m]))
    return probs


def reference_sum_probs(probs: List[Tensor]) -> np.ndarray:
    """Sequential sum of per-snapshot probabilities."""
    total = probs[0].data.copy()
    for p in probs[1:]:
        total += p.data
    return total


def reference_loss_on_snapshot(model, target):
    """Eq. 13-14 from the per-snapshot probability lists of
    ``model._entity_probabilities`` / ``model._relation_probabilities``,
    summed one snapshot at a time."""
    with model._dtype_policy:
        entity_list, relation_list = model.evolve(model.history_before(target.time))
        triples = target.triples
        s, r, o = triples[:, 0], triples[:, 1], triples[:, 2]
        queries = np.concatenate(
            [np.stack([s, r], axis=1), np.stack([o, r + model.num_relations], axis=1)]
        )
        targets = np.concatenate([o, s])
        loss_entity = reference_nll_of_summed_probs(
            model._entity_probabilities(entity_list, relation_list, queries), targets
        )
        loss_relation = reference_nll_of_summed_probs(
            model._relation_probabilities(entity_list, relation_list, np.stack([s, o], axis=1)),
            r,
        )
        joint = loss_entity * model.lambda_entity + loss_relation * (1.0 - model.lambda_entity)
    return joint, loss_entity, loss_relation


def use_reference_decoder(model):
    """Route ``model``'s decode through the per-snapshot loop.

    The training loss (per-snapshot probability lists, summed in turn)
    and the no-grad summed decode behind ``predict_entities`` /
    ``rank_entities`` / ``predict_relations`` / serving are rebound; a
    block visitor sees the whole sum as one block.
    """
    entity = partial(reference_entity_probabilities, model)
    relation = partial(reference_relation_probabilities, model)

    def summed_entities(*args, visit=None):
        total = reference_sum_probs(entity(*args))
        if visit is None:
            return total
        visit(0, total)

    object.__setattr__(model, "_entity_probabilities", entity)
    object.__setattr__(model, "_relation_probabilities", relation)
    object.__setattr__(model, "loss_on_snapshot", partial(reference_loss_on_snapshot, model))
    object.__setattr__(model, "_summed_entity_probabilities", summed_entities)
    object.__setattr__(
        model,
        "_summed_relation_probabilities",
        lambda *args: reference_sum_probs(relation(*args)),
    )
    return model


# ----------------------------------------------------------------------
# R-GCN and Conv-TransE kernels
# ----------------------------------------------------------------------
def _reference_rows_sum(values: np.ndarray, ids: np.ndarray, num_rows: int) -> np.ndarray:
    """``reduceat`` over the runs of sorted ``ids``, else ``np.add.at``."""
    out = np.zeros((num_rows,) + values.shape[1:], dtype=values.dtype)
    if len(ids) and np.all(ids[1:] >= ids[:-1]):
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        out[ids[starts]] = np.add.reduceat(values, starts, axis=0)
    else:
        np.add.at(out, ids, values)
    return out


def reference_segment_sum(src: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out_data = _reference_rows_sum(src.data, segment_ids, num_segments)

    def backward(grad: np.ndarray) -> None:
        if src.requires_grad:
            src._accumulate(np.asarray(grad)[segment_ids])

    return Tensor._from_op(out_data, (src,), backward, "segment_sum")


def reference_typed_linear(x: Tensor, weight: Tensor, types: np.ndarray) -> Tensor:
    types = np.asarray(types, dtype=np.int64)
    gathered = weight.data[types]
    out_data = np.einsum("ei,eio->eo", x.data, gathered)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        if x.requires_grad:
            x._accumulate(np.einsum("eo,eio->ei", grad, gathered))
        if weight.requires_grad:
            per_edge = np.einsum("ei,eo->eio", x.data, grad)
            weight._accumulate(_reference_rows_sum(per_edge, types, len(weight.data)))

    return Tensor._from_op(out_data, (x, weight), backward, "typed_linear")


def reference_conv2d(x: Tensor, weight: Tensor, bias=None, padding=(0, 0)) -> Tensor:
    ph, pw = padding
    c_out, c_in, kh, kw = weight.data.shape
    batch, channels, height, width = x.data.shape
    padded = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out_h, out_w = height + 2 * ph - kh + 1, width + 2 * pw - kw + 1
    st = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded,
        shape=(batch, channels, kh, kw, out_h, out_w),
        strides=(st[0], st[1], st[2], st[3], st[2], st[3]),
    )
    cols = windows.reshape(batch, channels * kh * kw, out_h * out_w)
    w_flat = weight.data.reshape(c_out, -1)
    out_data = np.einsum("ok,bkl->bol", w_flat, cols).reshape(batch, c_out, out_h, out_w)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad).reshape(batch, c_out, out_h * out_w)
        if weight.requires_grad:
            weight._accumulate(np.einsum("bol,bkl->ok", grad, cols).reshape(weight.data.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)))
        if x.requires_grad:
            grad_cols = np.einsum("ok,bol->bkl", w_flat, grad)
            grad_cols = grad_cols.reshape(batch, channels, kh, kw, out_h, out_w)
            grad_padded = np.zeros(padded.shape, dtype=grad_cols.dtype)
            for i in range(kh):
                for j in range(kw):
                    grad_padded[:, :, i : i + out_h, j : j + out_w] += grad_cols[:, :, i, j]
            x._accumulate(grad_padded[:, :, ph : ph + height, pw : pw + width])

    parents = (x, weight, bias) if bias is not None else (x, weight)
    return Tensor._from_op(out_data, parents, backward, "conv2d")


# ----------------------------------------------------------------------
# Softmax and ranking
# ----------------------------------------------------------------------
def reference_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax as three fresh buffers: shift, exp, normalise."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            grad = np.asarray(grad)
            inner = (grad * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (grad - inner))

    return Tensor._from_op(out_data, (x,), backward, "softmax")


def reference_ranks(scores, targets, filter_mask=None, rows=None) -> np.ndarray:
    """Average-tie ranks the long way round.

    Gathers ``scores[rows]`` into a full matrix, widens it to float64,
    sets excluded candidates to ``-inf`` and counts with ``>`` / ``==``
    sums over whole rows.
    """
    scores = np.asarray(scores)
    if rows is not None:
        scores = scores[np.asarray(rows, dtype=np.int64)]
    scores = scores.astype(np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if filter_mask is not None:
        mask = np.asarray(filter_mask, dtype=bool).copy()
        mask[np.arange(len(targets)), targets] = False
        scores[mask] = -np.inf
    target_scores = scores[np.arange(len(targets)), targets][:, None]
    greater = (scores > target_scores).sum(axis=1)
    ties = (scores == target_scores).sum(axis=1) - 1  # excl. the target
    return 1.0 + greater + ties / 2.0


def reference_evaluate(
    model,
    test_graph,
    setting="raw",
    filter_index=None,
    evaluate_relations=True,
    observe=True,
) -> EvaluationResult:
    """Serial ``evaluate_extrapolation``: score, accumulate, reveal."""
    if setting != "raw" and filter_index is None:
        raise ValueError("filtered settings need a FilterIndex over the full graph")

    num_relations = test_graph.num_relations
    entity_acc = RankAccumulator()
    relation_acc = RankAccumulator()

    for ts in test_graph.timestamps:
        snapshot = test_graph.snapshot(int(ts))
        scored = score_timestamp(
            model,
            snapshot,
            num_relations,
            setting=setting,
            filter_index=filter_index,
            evaluate_relations=evaluate_relations,
        )
        if scored is not None:
            entity_acc.update(scored.entity_ranks)
            if scored.relation_ranks is not None:
                relation_acc.update(scored.relation_ranks)
        if observe and len(snapshot.triples):
            model.observe(snapshot)

    return EvaluationResult(entity=entity_acc.summary(), relation=relation_acc.summary())


def reference_diagnose(
    model,
    test_graph,
    setting="raw",
    filter_index=None,
    observe=True,
    known_entities=None,
    evaluate_relations=True,
) -> DiagnosticsReport:
    """Serial ``diagnose_extrapolation``, without the reporter event."""
    if setting != "raw" and filter_index is None:
        raise ValueError("filtered settings need a FilterIndex over the full graph")

    accumulators = DiagnosticsAccumulators(known_entities, test_graph.num_entities)

    for ts in test_graph.timestamps:
        snapshot = test_graph.snapshot(int(ts))
        scored = score_timestamp(
            model,
            snapshot,
            test_graph.num_relations,
            setting=setting,
            filter_index=filter_index,
            evaluate_relations=evaluate_relations,
            dedup=False,
        )
        if scored is None:
            continue
        accumulators.update(scored)
        if observe:
            model.observe(snapshot)

    return accumulators.report(setting, evaluate_relations)


# ----------------------------------------------------------------------
# Algorithm 1
# ----------------------------------------------------------------------
def reference_build_hyperrelation_graph(snapshot) -> np.ndarray:
    """``(E, 3)`` hyperedges of ``snapshot`` in production's edge order.

    Incidences over the original facts, binarised, in int64 so the
    shared-entity counts cannot wrap; the o-o/s-s diagonals are zeroed
    with ``tolil().setdiag(0).tocsr()``, which also leaves those two
    products with sorted column indices.
    """
    triples = snapshot.triples
    shape = (2 * snapshot.num_relations, snapshot.num_entities)
    ones = np.ones(len(triples), dtype=np.int64)
    rs = sparse.csr_matrix((ones, (triples[:, 1], triples[:, 0])), shape=shape, dtype=np.int64)
    ro = sparse.csr_matrix((ones, (triples[:, 1], triples[:, 2])), shape=shape, dtype=np.int64)
    rs.data[:] = 1
    ro.data[:] = 1
    adjacency = [ro @ rs.T, rs @ ro.T, ro @ ro.T, rs @ rs.T]
    for idx in (2, 3):
        lil = adjacency[idx].tolil()
        lil.setdiag(0)
        adjacency[idx] = lil.tocsr()
    blocks = [np.zeros((0, 3), dtype=np.int64)]
    for htype, matrix in enumerate(adjacency):
        coo = matrix.tocoo()
        mask = coo.data != 0
        src, dst = coo.row[mask].astype(np.int64), coo.col[mask].astype(np.int64)
        types = np.full(len(src), htype, dtype=np.int64)
        blocks.append(np.stack([src, types, dst], axis=1))
        blocks.append(np.stack([dst, types + NUM_HYPERRELATIONS, src], axis=1))
    return np.concatenate(blocks, axis=0)


# ----------------------------------------------------------------------
# The RE-GCN family, hand-copied
# ----------------------------------------------------------------------
def renamed_state(state: dict, reverse: bool = False) -> dict:
    """A reference model's ``state_dict`` under the production key names
    (``reverse``: a production ``state_dict`` under the reference names)."""
    prefixes = (("entity_gcn.", "eam.gcn."), ("entity_gru.", "eam.gru."))
    renamed = {}
    for key, value in state.items():
        for old, new in prefixes:
            if reverse:
                old, new = new, old
            if key.startswith(old):
                key = new + key[len(old) :]
        renamed[key] = value
    return renamed


class ReferenceRecurrentBaseline(SequentialForecaster):
    """The RE-GCN-style encoder/decoder skeleton as it was hand-written:
    R-GCN + GRU entity step over the raw snapshot edges, one decoder call
    per snapshot, list-summed loss and predictions."""

    time_variability = False

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int = 32,
        history_length: int = 3,
        num_layers: int = 2,
        dropout: float = 0.2,
        num_kernels: int = 16,
        lambda_entity: float = 0.7,
        seed: int = 0,
    ):
        super().__init__(num_entities, num_relations, history_length)
        rng = seeded_rng(seed)
        self.dim = dim
        self.lambda_entity = lambda_entity
        self._dtype_policy = DtypePolicy(default_dtype())
        self.entity_embedding = Parameter(np.zeros((num_entities, dim)))
        self.relation_embedding = Parameter(np.zeros((2 * num_relations, dim)))
        init.xavier_uniform_(self.entity_embedding, rng=rng)
        init.xavier_uniform_(self.relation_embedding, rng=rng)
        self.entity_gcn = RGCNStack(2 * num_relations, dim, num_layers, dropout, rng=rng)
        self.entity_gru = GRUCell(dim, dim, rng=rng)
        self.relation_gru = GRUCell(2 * dim, dim, rng=rng)
        self.entity_decoder = ConvTransE(dim, num_kernels, dropout=dropout, rng=rng)
        self.relation_decoder = ConvTransE(dim, num_kernels, dropout=dropout, rng=rng)

    def _relation_step(self, entity_prev, relation_prev, snapshot) -> Tensor:
        entities, relations = snapshot.relation_entity_pairs
        pooled = F.segment_mean(
            entity_prev.gather_rows(entities), relations, 2 * self.num_relations
        )
        fused = F.concat([self.relation_embedding, pooled], axis=1)
        return self.relation_gru(fused, relation_prev)

    def evolve(self, history):
        entity = l2_normalize_rows(self.entity_embedding)
        relation = self.relation_embedding
        if not history:
            return [entity], [relation]
        entity_list, relation_list = [], []
        for snapshot in history:
            relation = self._relation_step(entity, relation, snapshot)
            aggregated = self.entity_gcn(
                entity, relation, snapshot.edges_with_inverse, snapshot.edge_norm
            )
            entity = self.entity_gru(aggregated, entity)
            entity_list.append(entity)
            relation_list.append(relation)
        return entity_list, relation_list

    def _entity_probabilities(self, entity_list, relation_list, queries) -> List[Tensor]:
        return reference_entity_probabilities(self, entity_list, relation_list, queries)

    def _relation_probabilities(self, entity_list, relation_list, pairs) -> List[Tensor]:
        return reference_relation_probabilities(self, entity_list, relation_list, pairs)

    def loss_on_snapshot(self, target):
        return reference_loss_on_snapshot(self, target)

    def _predict(self, fn, rows, ts):
        history = self.history_before(ts)
        was_training = self.training
        self.eval()
        with no_grad():
            entity_list, relation_list = self.evolve(history)
            probs = fn(entity_list, relation_list, rows)
        if was_training:
            self.train()
        return reference_sum_probs(probs)

    def predict_entities(self, queries, ts):
        return self._predict(self._entity_probabilities, queries, ts)

    def predict_relations(self, pairs, ts):
        return self._predict(self._relation_probabilities, pairs, ts)


class ReferenceREGCN(ReferenceRecurrentBaseline):
    """RE-GCN: the skeleton as-is."""


class ReferenceRGCRN(ReferenceRecurrentBaseline):
    """RGCRN: relation embeddings stay at their initial values."""

    def _relation_step(self, entity_prev, relation_prev, snapshot) -> Tensor:
        return self.relation_embedding


class ReferenceCEN(ReferenceRecurrentBaseline):
    """CEN: the probability ensemble over the evolved history."""

    time_variability = True


class ReferenceTiRGN(ReferenceRecurrentBaseline):
    """TiRGN: each snapshot's local scores gated against the global
    history-repetition distribution."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.history_gate = Parameter(np.zeros(1))
        self.vocab = _HistoryVocabulary(self.num_entities, self.num_relations)

    def set_history(self, graph) -> None:
        super().set_history(graph)
        self.vocab = _HistoryVocabulary(self.num_entities, self.num_relations)
        self.vocab.add_graph(graph)

    def record_snapshot(self, snapshot) -> None:
        super().record_snapshot(snapshot)
        self.vocab.add_snapshot(snapshot)

    def _global_entity_probs(self, queries: np.ndarray) -> np.ndarray:
        rows = []
        for s, r in np.asarray(queries, dtype=np.int64):
            vec = self.vocab.entity_vector(int(s), int(r))
            total = vec.sum()
            rows.append(
                vec / total if total > 0 else np.full(self.num_entities, 1.0 / self.num_entities)
            )
        return np.stack(rows)

    def _global_relation_probs(self, pairs: np.ndarray) -> np.ndarray:
        rows = []
        for s, o in np.asarray(pairs, dtype=np.int64):
            vec = self.vocab.relation_vector(int(s), int(o))
            total = vec.sum()
            rows.append(
                vec / total if total > 0 else np.full(self.num_relations, 1.0 / self.num_relations)
            )
        return np.stack(rows)

    def _entity_probabilities(self, entity_list, relation_list, queries) -> List[Tensor]:
        local = super()._entity_probabilities(entity_list, relation_list, queries)
        phi = self.history_gate.sigmoid()
        glob = Tensor(self._global_entity_probs(queries))
        return [p * phi + glob * (1.0 - phi) for p in local]

    def _relation_probabilities(self, entity_list, relation_list, pairs) -> List[Tensor]:
        local = super()._relation_probabilities(entity_list, relation_list, pairs)
        phi = self.history_gate.sigmoid()
        glob = Tensor(self._global_relation_probs(pairs))
        return [p * phi + glob * (1.0 - phi) for p in local]
