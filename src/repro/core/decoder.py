"""Conv-TransE decoder (Shang et al. 2019), used as the paper's
time-variability E-decoder and R-decoder (Eq. 11–12).

Two d-dimensional embeddings (subject+relation for entity decoding;
subject+object for relation decoding) are stacked into a 2 x d "image",
convolved with ``num_kernels`` 2x3 kernels (padding keeps width d),
flattened and projected back to d.  Scores are the dot products of the
projected query vector with all candidate embeddings.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterator, Optional

import numpy as np

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.nn import Conv2d, Dropout, Linear, Module
from repro.utils import seeded_rng

#: Logit bytes one softmax-and-sum block of :meth:`ConvTransE.summed_probabilities`
#: covers (all T snapshots of its rows): about 1 MB, so the in-place passes
#: over a block run in cache.
SUM_BLOCK_BYTES = 1 << 20


class LogitWorkspace:
    """Grow-only scratch for the no-grad decode's ``(T, B, C)`` logits.

    One flat buffer per dtype, grown to the largest request seen and
    never shrunk, so a pass over many timestamps reuses one allocation
    (and its already-faulted pages) instead of paying for a fresh
    ``T·B·C`` array at every timestamp.  A buffer is removed from the
    free map while :meth:`hold` lends it out, so a second thread
    decoding at the same time gets a fresh array and no two callers ever
    share memory.
    """

    def __init__(self):
        self._free: dict = {}
        self._lock = threading.Lock()
        self.taken = 0
        self.reused = 0

    @contextlib.contextmanager
    def hold(self, shape: tuple, dtype) -> Iterator[np.ndarray]:
        """An uninitialised C-contiguous ``shape`` array, exclusively held."""
        dtype = np.dtype(dtype)
        size = int(np.prod(shape))
        with self._lock:
            self.taken += 1
            flat = self._free.pop(dtype.str, None)
            if flat is not None and flat.size >= size:
                self.reused += 1
            else:
                flat = np.empty(size, dtype)
        try:
            yield flat[:size].reshape(shape)
        finally:
            with self._lock:
                kept = self._free.get(dtype.str)
                if kept is None or kept.size < flat.size:
                    self._free[dtype.str] = flat

    def stats(self) -> dict:
        """Holds, reuses and the bytes currently kept for reuse."""
        with self._lock:
            kept = sum(flat.nbytes for flat in self._free.values())
            return {"taken": self.taken, "reused": self.reused, "bytes": kept}

    def clear(self) -> None:
        """Drop every kept buffer and reset the counters."""
        with self._lock:
            self._free.clear()
            self.taken = 0
            self.reused = 0


#: Process-wide logit workspace shared by every decoder.
logit_workspace = LogitWorkspace()


class ConvTransE(Module):
    """Score queries against a candidate embedding matrix.

    Parameters
    ----------
    dim:
        Embedding dimensionality ``d``.
    num_kernels:
        Convolution channels (paper: 50).
    kernel_width:
        Width of the ``2 x kernel_width`` kernels (paper: 3).
    dropout:
        Dropout rate on the hidden projection (paper: 0.2).
    """

    def __init__(
        self,
        dim: int,
        num_kernels: int = 50,
        kernel_width: int = 3,
        dropout: float = 0.2,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if kernel_width % 2 == 0:
            raise ValueError("kernel_width must be odd so padding preserves d")
        rng = rng if rng is not None else seeded_rng(0)
        self.dim = dim
        self.conv = Conv2d(
            1,
            num_kernels,
            kernel_size=(2, kernel_width),
            padding=(0, (kernel_width - 1) // 2),
            rng=rng,
        )
        self.project = Linear(num_kernels * dim, dim, rng=rng)
        self.drop = Dropout(dropout, rng=rng)

    def query(self, first: Tensor, second: Tensor) -> Tensor:
        """Fuse two ``(B, d)`` embedding batches into ``(B, d)`` queries."""
        batch = first.shape[0]
        stacked = F.stack([first, second], axis=1)  # (B, 2, d)
        image = stacked.reshape(batch, 1, 2, self.dim)
        hidden = self.conv(image).relu()  # (B, K, 1, d)
        flat = hidden.reshape(batch, -1)
        return self.drop(self.project(flat).relu())

    def forward(self, first: Tensor, second: Tensor, candidates: Tensor) -> Tensor:
        """Raw scores ``(B, C)`` of every candidate row for each query."""
        return self.query(first, second) @ candidates.T

    # ------------------------------------------------------------------
    # Batched time-variability fast path
    # ------------------------------------------------------------------
    def queries_stacked(self, firsts: Tensor, seconds: Tensor) -> Tensor:
        """Fuse ``(T, B, d)`` embedding stacks into ``(T, B, d)`` queries.

        The T historical snapshots' query batches are flattened into one
        ``(T·B, 1, 2, d)`` image so the conv / projection / dropout each
        run once instead of T times.  Row t·B+i of the flat batch is
        row i of snapshot t's per-snapshot :meth:`query` call: the
        im2col rows and the single ``(T·B, d)`` dropout-mask draw (vs T
        sequential ``(B, d)`` draws from the same generator) are bitwise
        the loop's, and so are the conv/projection GEMM rows wherever
        BLAS rounds a row the same at ``T·B`` rows as at ``B`` (always
        for T = 1; ICEWS14-sized batches with T = 3 differ in the last
        ulp).
        """
        snaps, batch = firsts.shape[0], firsts.shape[1]
        stacked = F.stack([firsts, seconds], axis=2)  # (T, B, 2, d)
        image = stacked.reshape(snaps * batch, 1, 2, self.dim)
        hidden = self.conv(image).relu()  # (T·B, K, 1, d)
        flat = hidden.reshape(snaps * batch, -1)
        queries = self.drop(self.project(flat).relu())
        return queries.reshape(snaps, batch, self.dim)

    def probabilities_multi(self, firsts: Tensor, seconds: Tensor, candidates: Tensor) -> Tensor:
        """Per-snapshot softmax scores ``(T, B, C)`` in one batched pass.

        ``firsts``/``seconds`` are ``(T, B, d)`` query-side stacks and
        ``candidates`` the ``(T, C, d)`` per-snapshot candidate matrices;
        scoring is one batched 3-D matmul followed by a softmax over the
        candidate axis.
        """
        queries = self.queries_stacked(firsts, seconds)  # (T, B, d)
        scores = queries @ candidates.transpose(0, 2, 1)  # (T, B, C)
        return F.softmax(scores, axis=-1)

    def summed_probabilities(
        self,
        firsts: Tensor,
        seconds: Tensor,
        candidates: Tensor,
        visit: Optional[Callable[[int, np.ndarray], None]] = None,
    ) -> Optional[np.ndarray]:
        """No-grad decode: ``probabilities_multi(...).data.sum(0)``, ``(B, C)``.

        The queries and the single batched matmul are those of
        :meth:`probabilities_multi`, so the logits are bitwise the same
        (a row-blocked matmul would not be: BLAS reduction order follows
        the block shape).  The matmul writes into the reused
        :data:`logit_workspace` buffer rather than a fresh ``(T, B, C)``
        array; it is the same GEMM call either way.  Softmax and the sum
        over the T snapshots then run in place on row blocks of that
        buffer, sized by :data:`SUM_BLOCK_BYTES` so each block stays
        cache-resident, writing into a single ``(B, C)`` result — no
        further full-size temporaries.

        With ``visit``, no ``(B, C)`` result is built: each block's sums
        go to one ``(rows, C)`` scratch and ``visit(start, sums)`` is
        called with rows ``start:start + len(sums)`` while they are still
        in cache; the next block overwrites them, and ``None`` is
        returned.
        """
        queries = self.queries_stacked(firsts, seconds).data  # (T, B, d)
        table = candidates.data.transpose(0, 2, 1)  # (T, d, C)
        snaps, batch, width = queries.shape[0], queries.shape[1], table.shape[2]
        dtype = np.result_type(queries, table)
        rows = max(1, SUM_BLOCK_BYTES // (snaps * width * dtype.itemsize))
        out = np.empty((batch if visit is None else min(rows, batch), width), dtype)
        with logit_workspace.hold((snaps, batch, width), dtype) as logits:
            np.matmul(queries, table, out=logits)
            for start in range(0, batch, rows):
                block = logits[:, start : start + rows]
                F.softmax_array(block, axis=-1, out=block)
                if visit is None:
                    block.sum(axis=0, out=out[start : start + rows])
                else:
                    sums = out[: block.shape[1]]
                    block.sum(axis=0, out=sums)
                    visit(start, sums)
        return out if visit is None else None
