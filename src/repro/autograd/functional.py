"""Composite differentiable operations built on :class:`~repro.autograd.Tensor`.

These are the graph-level primitives the RETIA model needs beyond tensor
methods: concatenation, stacking, softmax families, segment scatter/gather
used by the R-GCN message passing, dropout, 2D convolution (im2col) for the
Conv-TransE decoder, and layer normalisation.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.autograd.dtype import default_dtype
from repro.autograd.tensor import Tensor, is_grad_enabled


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    return Tensor._from_op(out_data, tensors, backward, "concat")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (differentiable)."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        for i, tensor in enumerate(tensors):
            if tensor.requires_grad:
                tensor._accumulate(np.take(grad, i, axis=axis))

    return Tensor._from_op(out_data, tensors, backward, "stack")


def softmax_array(
    data: np.ndarray, axis: int = -1, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Numerically stable softmax of a raw array along ``axis``.

    The max-shift lands in ``out`` (a new array when ``None``; pass
    ``out=data`` to overwrite the input), then exp and the normalisation
    run in place on it: one buffer where shift / exp / divide would take
    three, with per-element values bitwise equal to that composition.
    """
    out = np.subtract(data, data.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    out_data = softmax_array(x.data, axis=axis)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            grad = np.asarray(grad)
            inner = (grad * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (grad - inner))

    return Tensor._from_op(out_data, (x,), backward, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_norm
    soft = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            grad = np.asarray(grad)
            x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._from_op(out_data, (x,), backward, "log_softmax")


def scatter_add(src: Tensor, index: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``src`` into ``num_segments`` buckets given by ``index``.

    This is the core of graph message passing: per-edge messages ``src``
    of shape ``(E, d)`` are accumulated into per-node outputs of shape
    ``(num_segments, d)``.
    """
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1 or len(index) != src.data.shape[0]:
        raise ValueError("index must be 1-D with one entry per src row")
    out_data = np.zeros((num_segments,) + src.data.shape[1:], dtype=src.data.dtype)
    np.add.at(out_data, index, src.data)

    def backward(grad: np.ndarray) -> None:
        if src.requires_grad:
            src._accumulate(np.asarray(grad)[index])

    return Tensor._from_op(out_data, (src,), backward, "scatter_add")


def segment_sum(src: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Grouped segment sum: rows of ``src`` accumulated into buckets.

    Semantically identical to :func:`scatter_add` but fuses the whole
    edge set into one call: the R-GCN layers pass every edge's message at
    once instead of looping per edge type.  When ``segment_ids`` is
    non-decreasing (contiguous segments, e.g. edges sorted by
    destination) the forward uses ``np.add.reduceat`` over segment
    boundaries instead of scattered adds.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if segment_ids.ndim != 1 or len(segment_ids) != src.data.shape[0]:
        raise ValueError("segment_ids must be 1-D with one entry per src row")
    out_data = np.zeros((num_segments,) + src.data.shape[1:], dtype=src.data.dtype)
    if len(segment_ids):
        if np.all(segment_ids[1:] >= segment_ids[:-1]):
            boundaries = np.flatnonzero(
                np.r_[True, segment_ids[1:] != segment_ids[:-1]]
            )
            out_data[segment_ids[boundaries]] = np.add.reduceat(
                src.data, boundaries, axis=0
            )
        else:
            np.add.at(out_data, segment_ids, src.data)

    def backward(grad: np.ndarray) -> None:
        if src.requires_grad:
            src._accumulate(np.asarray(grad)[segment_ids])

    return Tensor._from_op(out_data, (src,), backward, "segment_sum")


def typed_linear(x: Tensor, weight: Tensor, types: np.ndarray) -> Tensor:
    """Per-row linear transform against a per-type weight bank.

    ``out[e] = x[e] @ weight[types[e]]`` for ``x`` of shape ``(E, d_in)``
    and ``weight`` of shape ``(T, d_in, d_out)``.  This is the fused
    replacement for R-GCN's per-edge-type gather/matmul/scatter loop: the
    forward is a single ``einsum`` over the gathered weight bank, and the
    hand-written backward reduces the per-edge outer products back into
    the bank — with an ``np.add.reduceat`` fast path over contiguous
    segments when ``types`` is sorted (type-grouped edge lists).
    """
    types = np.asarray(types, dtype=np.int64)
    if types.ndim != 1 or len(types) != x.data.shape[0]:
        raise ValueError("types must be 1-D with one entry per x row")
    if weight.data.ndim != 3:
        raise ValueError("weight must be a (num_types, d_in, d_out) bank")
    gathered = weight.data[types]  # (E, d_in, d_out)
    out_data = np.einsum("ei,eio->eo", x.data, gathered)
    types_sorted = len(types) == 0 or bool(np.all(types[1:] >= types[:-1]))

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        if x.requires_grad:
            x._accumulate(np.einsum("eo,eio->ei", grad, gathered))
        if weight.requires_grad:
            grad_w = np.zeros_like(weight.data)
            if len(types):
                per_edge = np.einsum("ei,eo->eio", x.data, grad)
                if types_sorted:
                    boundaries = np.flatnonzero(
                        np.r_[True, types[1:] != types[:-1]]
                    )
                    grad_w[types[boundaries]] = np.add.reduceat(
                        per_edge, boundaries, axis=0
                    )
                else:
                    np.add.at(grad_w, types, per_edge)
            weight._accumulate(grad_w)

    return Tensor._from_op(out_data, (x, weight), backward, "typed_linear")


def segment_mean(src: Tensor, index: np.ndarray, num_segments: int) -> Tensor:
    """Mean-pool rows of ``src`` per segment; empty segments stay zero."""
    index = np.asarray(index, dtype=np.int64)
    counts = np.bincount(index, minlength=num_segments).astype(src.data.dtype)
    safe = np.maximum(counts, 1.0).reshape((num_segments,) + (1,) * (src.data.ndim - 1))
    summed = scatter_add(src, index, num_segments)
    return summed * Tensor(1.0 / safe)


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-p)``."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    rng = rng or np.random.default_rng()
    mask = ((rng.random(x.data.shape) >= p) / (1.0 - p)).astype(x.data.dtype)
    return x * Tensor(mask)


def rrelu(
    x: Tensor,
    lower: float = 1.0 / 8.0,
    upper: float = 1.0 / 3.0,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Randomized leaky ReLU (the paper's activation).

    In training the negative slope is sampled per element from
    ``U(lower, upper)``; in evaluation the mean slope is used, matching
    the PyTorch semantics.
    """
    if training:
        rng = rng or np.random.default_rng()
        neg_slope = rng.uniform(lower, upper, size=x.data.shape)
    else:
        neg_slope = (lower + upper) / 2.0
    slope = np.where(x.data > 0, 1.0, neg_slope).astype(x.data.dtype)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.asarray(grad) * slope)

    return Tensor._from_op(x.data * slope, (x,), backward, "rrelu")


def softplus(x: Tensor) -> Tensor:
    """Numerically stable ``log(1 + exp(x))``.

    Uses the identity ``softplus(x) = max(x, 0) + log1p(exp(-|x|))`` so
    neither branch overflows: for large positive ``x`` the result is
    ``x + log1p(exp(-x)) ≈ x``, for large negative ``x`` it decays to
    ``exp(x)`` through ``log1p``.  The gradient is ``sigmoid(x)``,
    computed branch-wise the same way ``Tensor.sigmoid`` does.
    """
    z = x.data
    out_data = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            sig = np.empty_like(z)
            pos = z >= 0
            sig[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            sig[~pos] = ez / (1.0 + ez)
            x._accumulate(np.asarray(grad) * sig)

    return Tensor._from_op(out_data, (x,), backward, "softplus")


def layer_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis (no affine parameters)."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * ((var + eps) ** -0.5)


def _im2col(x: np.ndarray, kh: int, kw: int, ph: int, pw: int) -> np.ndarray:
    """Unfold ``(B, C, H, W)`` into ``(B, C*kh*kw, out_h*out_w)`` columns."""
    batch, channels, height, width = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out_h = height + 2 * ph - kh + 1
    out_w = width + 2 * pw - kw + 1
    strides = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded,
        shape=(batch, channels, kh, kw, out_h, out_w),
        strides=(strides[0], strides[1], strides[2], strides[3], strides[2], strides[3]),
        writeable=False,
    )
    return windows.reshape(batch, channels * kh * kw, out_h * out_w), out_h, out_w


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, padding=(0, 0)) -> Tensor:
    """2D convolution with stride 1 (what Conv-TransE/ConvE need).

    Parameters
    ----------
    x:
        Input of shape ``(B, C_in, H, W)``.
    weight:
        Kernels of shape ``(C_out, C_in, kH, kW)``.
    bias:
        Optional per-output-channel bias ``(C_out,)``.
    padding:
        Symmetric zero padding ``(pH, pW)``.
    """
    ph, pw = padding
    c_out, c_in, kh, kw = weight.data.shape
    batch = x.data.shape[0]
    cols, out_h, out_w = _im2col(x.data, kh, kw, ph, pw)
    w_flat = weight.data.reshape(c_out, -1)
    out_data = np.einsum("ok,bkl->bol", w_flat, cols).reshape(batch, c_out, out_h, out_w)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad).reshape(batch, c_out, out_h * out_w)
        if weight.requires_grad:
            grad_w = np.einsum("bol,bkl->ok", grad, cols).reshape(weight.data.shape)
            weight._accumulate(grad_w)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)))
        if x.requires_grad:
            grad_cols = np.einsum("ok,bol->bkl", w_flat, grad)
            grad_x = _col2im(grad_cols, x.data.shape, kh, kw, ph, pw, out_h, out_w)
            x._accumulate(grad_x)

    parents = (x, weight, bias) if bias is not None else (x, weight)
    return Tensor._from_op(out_data, parents, backward, "conv2d")


def _col2im(cols, x_shape, kh, kw, ph, pw, out_h, out_w) -> np.ndarray:
    """Fold ``(B, C*kh*kw, L)`` columns back into the input gradient."""
    batch, channels, height, width = x_shape
    padded = np.zeros((batch, channels, height + 2 * ph, width + 2 * pw), dtype=cols.dtype)
    cols = cols.reshape(batch, channels, kh, kw, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + out_h, j : j + out_w] += cols[:, :, i, j]
    return padded[:, :, ph : ph + height, pw : pw + width]


# ----------------------------------------------------------------------
# Fused recurrent cells (DESIGN.md §11)
# ----------------------------------------------------------------------


class WorkspacePool:
    """Free-list of scratch arrays keyed by ``(shape, dtype)``.

    The fused cell kernels below burn through the same handful of gate
    buffer shapes on every window step; instead of reallocating
    ``(B, 3H)``/``(B, 4H)`` arrays per snapshot, buffers are taken here
    and given back once the step's backward has consumed them (or at the
    end of the forward under ``no_grad``).  Buffers are exclusively
    owned between :meth:`take` and :meth:`give`, so the lock only guards
    the free-list itself — data-parallel shard threads can share one
    pool.  ``give`` is best-effort: a graph discarded without running
    backward simply never returns its buffers, and the GC reclaims them
    with the closures.
    """

    #: Upper bound of pooled buffers per (shape, dtype) key.
    MAX_PER_KEY = 64

    def __init__(self):
        self._free: dict = {}
        self._lock = threading.Lock()
        self.taken = 0
        self.reused = 0

    def take(self, shape: tuple, dtype) -> np.ndarray:
        """An uninitialised scratch array of the requested shape/dtype."""
        key = (tuple(shape), np.dtype(dtype).str)
        with self._lock:
            self.taken += 1
            stack = self._free.get(key)
            if stack:
                self.reused += 1
                return stack.pop()
        return np.empty(shape, dtype=dtype)

    def give(self, *arrays: np.ndarray) -> None:
        """Return scratch arrays for reuse (silently drops beyond the cap)."""
        with self._lock:
            for arr in arrays:
                if arr is None:
                    continue
                key = (arr.shape, arr.dtype.str)
                stack = self._free.setdefault(key, [])
                if len(stack) < self.MAX_PER_KEY:
                    stack.append(arr)

    def stats(self) -> dict:
        """Pool telemetry: takes, reuses and currently pooled buffers."""
        with self._lock:
            pooled = sum(len(stack) for stack in self._free.values())
            return {"taken": self.taken, "reused": self.reused, "pooled": pooled}

    def clear(self) -> None:
        """Drop every pooled buffer and reset the counters."""
        with self._lock:
            self._free.clear()
            self.taken = 0
            self.reused = 0


#: Process-wide pool shared by every fused cell call.
_cell_pool = WorkspacePool()


def cell_workspace_stats() -> dict:
    """Telemetry of the shared fused-cell workspace pool."""
    return _cell_pool.stats()


def clear_cell_workspace() -> None:
    """Reset the shared fused-cell workspace pool (tests)."""
    _cell_pool.clear()


def _sigmoid_(z: np.ndarray) -> np.ndarray:
    """In-place numerically stable logistic, bit-identical to
    :meth:`Tensor.sigmoid`.

    The reference evaluates ``1/(1+exp(-z))`` where ``z >= 0`` and
    ``exp(z)/(1+exp(z))`` elsewhere via masked assignment.  Both
    branches feed ``e = exp(-|z|)`` into ``1/(1+e)`` resp. ``e/(1+e)``,
    so the same values fall out of a branch-free select — which avoids
    the reference's four fancy-indexing passes (the expensive part at
    gate-buffer sizes).
    """
    pos = z >= 0
    e = np.exp(-np.abs(z))
    np.divide(np.where(pos, 1.0, e), 1.0 + e, out=z)
    return z


def _weight_grad(inp: np.ndarray, dgates: np.ndarray) -> np.ndarray:
    """``d(inp @ W.T)/dW`` with the reference graph's exact operation
    order: the matmul node computes ``swapaxes(inp) @ dgates`` and the
    transpose node flips it back."""
    return np.transpose(np.matmul(np.swapaxes(inp, -1, -2), dgates), (1, 0))


def gru_cell(
    x: Tensor,
    h: Tensor,
    weight_ih: Tensor,
    weight_hh: Tensor,
    bias_ih: Tensor,
    bias_hh: Tensor,
) -> Tensor:
    """One fused GRU step: ``h' = (1 - z) * n + z * h`` as a single node.

    Bit-identical (to the ulp, values and gradients) to the reference
    composition in :class:`repro.nn.rnn.GRUCell` — both GEMMs, the bias
    adds, gate slicing, the stable sigmoids/tanh and the blend replicate
    the reference's floating-point operation order exactly, and the
    hand-derived backward reproduces the reference tape's accumulation
    arithmetic term by term (see DESIGN.md §11 for the derivation).

    When ``bias_hh`` is exactly zero the second bias add is folded away
    (``b_ih + b_hh == b_ih`` exactly), eliminating one ``(B, 3H)``
    broadcast add; the skipped ``+ 0.0`` can only flip the sign of a
    zero, which no downstream value or gradient observes.
    """
    x_data, h_data = x.data, h.data
    w_ih, w_hh = weight_ih.data, weight_hh.data
    hs = w_hh.shape[1]
    batch = x_data.shape[0]
    pool = _cell_pool
    gshape = (batch, 3 * hs)
    sshape = (batch, hs)
    dtype = x_data.dtype

    gx = np.matmul(x_data, w_ih.T, out=pool.take(gshape, dtype))
    gx += bias_ih.data
    gh = np.matmul(h_data, w_hh.T, out=pool.take(gshape, dtype))
    if bias_hh.data.any():
        gh += bias_hh.data
    ghn = gh[:, 2 * hs :]

    r = _sigmoid_(np.add(gx[:, :hs], gh[:, :hs], out=pool.take(sshape, dtype)))
    z = _sigmoid_(
        np.add(gx[:, hs : 2 * hs], gh[:, hs : 2 * hs], out=pool.take(sshape, dtype))
    )
    n = pool.take(sshape, dtype)
    np.multiply(r, ghn, out=n)
    np.add(gx[:, 2 * hs :], n, out=n)
    np.tanh(n, out=n)
    # The reference blend wraps 1.0 as a Tensor, so the subtraction runs
    # under the ambient dtype policy; replicate that promotion exactly.
    one = np.asarray(1.0, dtype=default_dtype())
    omz = np.subtract(one, z, out=pool.take(sshape, dtype))
    out_data = omz * n + z * h_data
    pool.give(gx)

    parents = (x, h, weight_ih, weight_hh, bias_ih, bias_hh)
    if not (is_grad_enabled() and any(p.requires_grad for p in parents)):
        # No tape: the backward closure would be dropped by _from_op, so
        # return the scratch buffers now instead of leaking them.
        pool.give(gh, r, z, n, omz)

        def backward_dead(grad: np.ndarray) -> None:  # pragma: no cover
            return

        return Tensor._from_op(out_data, parents, backward_dead, "gru_cell")

    # Gradient-order mirroring (DESIGN.md §11).  Floating-point sums of
    # three or more terms are order dependent, so for shared tensors the
    # fused node must accumulate its contributions at the exact points
    # in the backward schedule where the reference tape would.  The
    # reference DFS descends the hidden state's subtree first (through
    # the ``z * h`` blend), touches the recurrent GEMM and ``bias_hh``
    # add during the unwind right after (their closures therefore run
    # just *before* the h-subtree backward), and reaches ``weight_ih``'s
    # transpose just before descending x (its closure runs just *after*
    # the x-subtree backward).  Two proxy nodes — positioned in the
    # parents tuple so the DFS touches them at those same moments —
    # replay the deferred contributions in that order; the main closure
    # stashes the values and pokes each proxy with a scalar zero so its
    # closure fires.
    rec_slot = [None]
    wih_slot = [None]

    def backward_rec(_grad: np.ndarray) -> None:
        stash = rec_slot[0]
        if stash is not None:
            rec_slot[0] = None
            dbhh, dh_rec, dwhh = stash
            if dbhh is not None:
                bias_hh._accumulate(dbhh)
            if dh_rec is not None:
                h._accumulate(dh_rec)
            if dwhh is not None:
                weight_hh._accumulate(dwhh)

    def backward_wih(_grad: np.ndarray) -> None:
        gw = wih_slot[0]
        if gw is not None:
            wih_slot[0] = None
            weight_ih._accumulate(gw)

    rec_proxy = Tensor._from_op(
        np.zeros((), dtype=dtype), (h, weight_hh, bias_hh), backward_rec, "gru_cell_rec"
    )
    wih_hook = Tensor._from_op(
        np.zeros((), dtype=dtype), (weight_ih,), backward_wih, "gru_cell_wih"
    )
    # Reverse pop order = h, rec_proxy, wih_hook, x, then leaves: the
    # proxies land in the DFS postorder exactly where the reference's
    # recurrent-GEMM and weight-transpose nodes would.
    parents = (bias_hh, bias_ih, weight_hh, weight_ih, x, wih_hook, rec_proxy, h)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        # Blend: dn through (1-z)*n, dz from both blend terms, dh direct.
        dn = grad * omz
        dz = grad * h_data - grad * n
        # tanh and the r-gated candidate.
        dpre_n = dn * (1.0 - n**2)
        dr = dpre_n * ghn
        dghn = dpre_n * r
        dpre_r = dr * r * (1.0 - r)
        dpre_z = dz * z * (1.0 - z)
        # Reassemble the (B, 3H) gate gradients the way the reference's
        # slice nodes do (zeros + disjoint slice adds).
        dgx = pool.take(gshape, grad.dtype)
        dgx[...] = 0.0
        dgx[:, :hs] += dpre_r
        dgx[:, hs : 2 * hs] += dpre_z
        dgx[:, 2 * hs :] += dpre_n
        dgh = pool.take(gshape, grad.dtype)
        dgh[...] = 0.0
        dgh[:, :hs] += dpre_r
        dgh[:, hs : 2 * hs] += dpre_z
        dgh[:, 2 * hs :] += dghn
        zero = np.zeros((), dtype=grad.dtype)
        if x.requires_grad:
            x._accumulate(np.matmul(dgx, w_ih))
        if h.requires_grad:
            h._accumulate(grad * z)
        if bias_ih.requires_grad:
            bias_ih._accumulate(dgx.sum(axis=0))
        if weight_ih.requires_grad:
            wih_slot[0] = _weight_grad(x_data, dgx)
            wih_hook._accumulate(zero)
        dbhh = dgh.sum(axis=0) if bias_hh.requires_grad else None
        dh_rec = np.matmul(dgh, w_hh) if h.requires_grad else None
        dwhh = _weight_grad(h_data, dgh) if weight_hh.requires_grad else None
        if dbhh is not None or dh_rec is not None or dwhh is not None:
            rec_slot[0] = (dbhh, dh_rec, dwhh)
            rec_proxy._accumulate(zero)
        pool.give(gh, r, z, n, omz, dgx, dgh)

    return Tensor._from_op(out_data, parents, backward, "gru_cell")


def lstm_cell(
    x: Tensor,
    h: Tensor,
    c: Tensor,
    weight_ih: Tensor,
    weight_hh: Tensor,
    bias_ih: Tensor,
    bias_hh: Tensor,
    gate_hook: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], None]] = None,
) -> Tuple[Tensor, Tensor]:
    """One fused LSTM step: returns ``(h_next, c_next)`` from ONE backward.

    Bit-identical to the reference composition in
    :class:`repro.nn.rnn.LSTMCell` (same GEMM/bias/activation order; the
    hand-derived backward reproduces the tape's accumulation arithmetic —
    DESIGN.md §11).  The two outputs share a single fused backward:
    ``c_next`` owns it, and ``h_next`` is a child of ``c_next`` whose
    closure stashes the hidden-state gradient and routes the
    ``o * tanh(c')`` chain back into ``c_next`` — so downstream gradient
    through either output (or both) lands in one closure, exactly like
    the reference graph.

    ``gate_hook`` is called with the raw ``(i, f, o)`` sigmoid outputs
    during the forward — the seam gate-saturation probing uses, so the
    fused path keeps the same observability as the reference.  When
    ``bias_hh`` is exactly zero its broadcast add is folded away (exact;
    see :func:`gru_cell`).
    """
    x_data, h_data, c_data = x.data, h.data, c.data
    w_ih, w_hh = weight_ih.data, weight_hh.data
    hs = w_hh.shape[1]
    batch = x_data.shape[0]
    pool = _cell_pool
    gshape = (batch, 4 * hs)
    sshape = (batch, hs)
    dtype = x_data.dtype

    gates = np.matmul(x_data, w_ih.T, out=pool.take(gshape, dtype))
    gates += bias_ih.data
    gates += np.matmul(h_data, w_hh.T)
    if bias_hh.data.any():
        gates += bias_hh.data

    act = pool.take(gshape, dtype)
    act[...] = gates
    i = _sigmoid_(act[:, :hs])
    f = _sigmoid_(act[:, hs : 2 * hs])
    g = act[:, 2 * hs : 3 * hs]
    np.tanh(g, out=g)
    o = _sigmoid_(act[:, 3 * hs :])
    pool.give(gates)
    if gate_hook is not None:
        gate_hook(i, f, o)

    c_next_data = f * c_data + i * g
    tc = np.tanh(c_next_data, out=pool.take(sshape, dtype))
    h_next_data = o * tc

    parents = (x, h, c, weight_ih, weight_hh, bias_ih, bias_hh)
    if not (is_grad_enabled() and any(p.requires_grad for p in parents)):
        # No tape: return scratch buffers now (see gru_cell).
        pool.give(act, tc)

        def backward_dead(grad: np.ndarray) -> None:  # pragma: no cover
            return

        c_next = Tensor._from_op(c_next_data, parents, backward_dead, "lstm_cell")
        h_next = Tensor._from_op(h_next_data, (c_next,), backward_dead, "lstm_cell_h")
        return h_next, c_next

    # Gradient of h_next, stashed by the child node's closure so the
    # fused backward on c_next sees both output gradients at once.
    grad_h_slot = [None]

    # Gradient-order mirroring (DESIGN.md §11).  Sums of three or more
    # floats are order dependent, so when a shared tensor (a parameter
    # reused across steps, or an input feeding several ops) collects 3+
    # gradient contributions, each one must land at the exact point in
    # the backward schedule where the reference tape's closure would
    # run.  The reference DFS explores the cell's external subtrees in
    # the order h, x, c; weight_hh's transpose node is touched *before*
    # the h descent (so its closure runs after the entire h-subtree —
    # forward-time order across chained steps), the recurrent GEMM's dh
    # lands just before the h-subtree, weight_ih's transpose just after
    # the x-subtree, dx just before it, and the bias adds run right
    # after the root area.  Scalar proxy nodes positioned in the parents
    # tuple reproduce those postorder slots; backward_c stashes the
    # values and pokes each proxy with a scalar zero so its closure
    # fires at the mirrored position.
    whh_slot = [None]
    mh_slot = [None]
    wih_slot = [None]
    mx_slot = [None]
    bias_slot = [None]

    def backward_whh(_grad: np.ndarray) -> None:
        gw = whh_slot[0]
        if gw is not None:
            whh_slot[0] = None
            weight_hh._accumulate(gw)

    def backward_mh(_grad: np.ndarray) -> None:
        gh_ = mh_slot[0]
        if gh_ is not None:
            mh_slot[0] = None
            h._accumulate(gh_)

    def backward_wih(_grad: np.ndarray) -> None:
        gw = wih_slot[0]
        if gw is not None:
            wih_slot[0] = None
            weight_ih._accumulate(gw)

    def backward_mx(_grad: np.ndarray) -> None:
        gx_ = mx_slot[0]
        if gx_ is not None:
            mx_slot[0] = None
            x._accumulate(gx_)

    def backward_bias(_grad: np.ndarray) -> None:
        db = bias_slot[0]
        if db is not None:
            bias_slot[0] = None
            # Reference order: the outer (+ bias_hh) add unwinds first.
            if bias_hh.requires_grad:
                bias_hh._accumulate(db)
            if bias_ih.requires_grad:
                bias_ih._accumulate(db)

    zdt = np.zeros((), dtype=dtype)
    whh_hook = Tensor._from_op(zdt, (weight_hh,), backward_whh, "lstm_cell_whh")
    mh_proxy = Tensor._from_op(zdt, (h,), backward_mh, "lstm_cell_mh")
    wih_hook = Tensor._from_op(zdt, (weight_ih,), backward_wih, "lstm_cell_wih")
    mx_proxy = Tensor._from_op(zdt, (x,), backward_mx, "lstm_cell_mx")
    bias_proxy = Tensor._from_op(
        zdt, (bias_ih, bias_hh), backward_bias, "lstm_cell_bias"
    )
    # Reverse pop order: whh_hook, h, mh_proxy, wih_hook, x, mx_proxy,
    # bias_proxy, c, then the bare weight leaves — which places each
    # proxy in the DFS postorder exactly where the reference's
    # transpose/GEMM/bias nodes would sit.
    parents = (
        weight_ih,
        weight_hh,
        c,
        bias_proxy,
        mx_proxy,
        x,
        wih_hook,
        mh_proxy,
        h,
        whh_hook,
    )

    def backward_c(grad_c: np.ndarray) -> None:
        grad_c = np.asarray(grad_c)
        grad_h = grad_h_slot[0]
        di = grad_c * g
        df = grad_c * c_data
        dg = grad_c * i
        dpre_i = di * i * (1.0 - i)
        dpre_f = df * f * (1.0 - f)
        dpre_g = dg * (1.0 - g**2)
        dgates = pool.take(gshape, grad_c.dtype)
        dgates[...] = 0.0
        dgates[:, :hs] += dpre_i
        dgates[:, hs : 2 * hs] += dpre_f
        dgates[:, 2 * hs : 3 * hs] += dpre_g
        if grad_h is not None:
            # Output gate chain only exists when h_next fed the loss.
            do = grad_h * tc
            dgates[:, 3 * hs :] += do * o * (1.0 - o)
        zero = np.zeros((), dtype=grad_c.dtype)
        if c.requires_grad:
            c._accumulate(grad_c * f)
        if bias_ih.requires_grad or bias_hh.requires_grad:
            bias_slot[0] = dgates.sum(axis=0)
            bias_proxy._accumulate(zero)
        if x.requires_grad:
            mx_slot[0] = np.matmul(dgates, w_ih)
            mx_proxy._accumulate(zero)
        if weight_ih.requires_grad:
            wih_slot[0] = _weight_grad(x_data, dgates)
            wih_hook._accumulate(zero)
        if h.requires_grad:
            mh_slot[0] = np.matmul(dgates, w_hh)
            mh_proxy._accumulate(zero)
        if weight_hh.requires_grad:
            whh_slot[0] = _weight_grad(h_data, dgates)
            whh_hook._accumulate(zero)
        pool.give(act, tc, dgates)

    c_next = Tensor._from_op(c_next_data, parents, backward_c, "lstm_cell")

    def backward_h(grad_h: np.ndarray) -> None:
        grad_h = np.asarray(grad_h)
        grad_h_slot[0] = grad_h
        if c_next.requires_grad:
            c_next._accumulate(grad_h * o * (1.0 - tc**2))

    h_next = Tensor._from_op(h_next_data, (c_next,), backward_h, "lstm_cell_h")
    return h_next, c_next
