"""Planned row sums that repeat numpy's own summation order (DESIGN.md §12).

The R-GCN kernels sum per-edge rows into per-node or per-type rows with
``np.add.at`` over an arbitrary index, or with ``np.add.reduceat`` over
the runs of a sorted one.  Both are slow on this model's edge lists:
``add.at`` is unbuffered, and ``reduceat`` makes one inner-loop call per
run per column.  Both depend only on the index, so a snapshot's can be
planned once.

:class:`SparseSum` is that plan, built around one CSR product.  A CSR
row adds its entries one after the other in stored order, starting from
zero, so by storing the right order the product repeats numpy's rounding
and the result is ``==`` to the numpy call it replaces:

* :meth:`SparseSum.add_at` lists each target's sources in index order,
  the order in which ``np.add.at`` adds them.
* :meth:`SparseSum.reduceat` follows ``reduceat``, which adds a run
  ``a`` as ``a[0] + pairwise(a[1:])``.  numpy's pairwise summation of
  ``n`` terms is a plain loop below 8 terms.  Up to 128 terms it keeps
  8 lanes, lane ``j`` adding terms ``j, j + 8, ...`` in turn over the
  largest multiple of 8, joins them as ``((l0 + l1) + (l2 + l3)) +
  ((l4 + l5) + (l6 + l7))`` and adds the remaining terms one by one.
  So a run of up to 8 rows is one product row over ``a[1:]`` plus
  ``a[0]``; a run of up to 129 rows is 8 product rows (the lanes), the
  join, and a second product row over the join, the remaining terms
  and ``a[0]``.  Longer runs, where pairwise summation halves its
  input, are left to ``reduceat`` itself.

Index sums with no plan to reuse go through :func:`add_at`, which is
``np.add.at`` itself on a flat view, where numpy's fast 1-D loop runs.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.sparse import _sparsetools

#: Longest run whose ``reduceat`` sum is ``a[0]`` plus a plain loop.
PLAIN_RUN = 8
#: Most terms numpy's pairwise summation adds in 8 lanes before halving.
PAIRWISE_BLOCK = 128


class SparseSum:
    """Rows of a ``(E, ...)`` array summed into target rows, as a plan.

    ``plan(values, num_rows)`` returns zeros of shape ``(num_rows,) +
    values.shape[1:]`` with each target row holding its sum.  Build one
    with :meth:`add_at`, :meth:`reduceat` or :meth:`segments`.  A plan
    holds int32 index arrays only, O(E) however many rows the output
    has; its product runs in the values' dtype.

    Parameters
    ----------
    num_inputs:
        ``E``, the number of rows summed.
    rows:
        The target row of each of the first ``len(rows)`` rows of the
        CSR product.
    indptr, indices:
        The product's structure: its row ``k`` adds input rows
        ``indices[indptr[k]:indptr[k + 1]]`` in that order.
    heads:
        One input row per target row, added after the product
        (``reduceat``'s ``a[0]``), or ``None``.
    lanes:
        ``(target rows, indptr, indices, rests)`` of the runs summed in
        8 lanes: the product's remaining rows are their lanes, 8 per
        run, and the second product ``(indptr, indices)`` adds, for run
        ``k``, the join of its lanes (row ``k`` of its input) and then
        its remaining terms and ``a[0]`` (input rows ``rests``, placed
        after the joins).  ``None`` when there are none.
    long_runs:
        ``(target rows, indices, picks)`` of the runs left to
        ``np.add.reduceat``: row ``k`` takes segment ``picks[k]`` of
        ``np.add.reduceat(values, indices)``.  ``None`` when there are none.
    """

    # A snapshot cache holds eight of these per snapshot: no __dict__.
    __slots__ = ("num_inputs", "rows", "indptr", "indices", "heads", "lanes", "long_runs")

    def __init__(
        self,
        num_inputs: int,
        rows: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        heads: Optional[np.ndarray] = None,
        lanes: Optional[tuple] = None,
        long_runs: Optional[tuple] = None,
    ):
        self.num_inputs = int(num_inputs)
        self.rows = rows.astype(np.int32)
        self.indptr = indptr.astype(np.int32)
        self.indices = indices.astype(np.int32)
        self.heads = None if heads is None else heads.astype(np.int32)
        self.lanes = None if lanes is None else tuple(a.astype(np.int32) for a in lanes)
        self.long_runs = long_runs

    @staticmethod
    def add_at(index: np.ndarray) -> "SparseSum":
        """``==`` ``np.add.at(zeros, index, values)``, bit for bit."""
        index = _as_index(index)
        order = np.argsort(index, kind="stable")
        ordered = index[order]
        bounds = _run_bounds(ordered)
        return SparseSum(len(ordered), ordered[bounds[:-1]], bounds, order)

    @staticmethod
    def reduceat(ids: np.ndarray) -> "SparseSum":
        """``==`` ``np.add.reduceat`` over the runs of non-decreasing ``ids``.

        Run ``k`` lands in row ``ids[start_k]``.  A run of up to
        ``PAIRWISE_BLOCK + 1`` rows may differ from ``reduceat`` in the
        sign of a zero sum, nothing else; longer runs are ``reduceat``'s
        own.
        """
        ids = _as_index(ids)
        if np.any(ids[1:] < ids[:-1]):
            raise ValueError("reduceat needs non-decreasing ids")
        bounds = _run_bounds(ids)
        starts, ends = bounds[:-1], bounds[1:]
        terms = ends - starts - 1  # the pairwise-summed a[1:] of each run
        plain = terms < PLAIN_RUN
        laned = ~plain & (terms <= PAIRWISE_BLOCK)
        # Product rows: the terms of each plain run, run after run ...
        counts = [terms[plain]]
        indices = [np.repeat(starts[plain] + 1, counts[0]) + _offsets_within(counts[0])]
        # ... then 8 lanes per laned run, lane j adding terms j, j + 8, ...
        # of the largest multiple of 8.
        lanes = None
        if laned.any():
            first, depth = starts[laned] + 1, terms[laned] // 8
            whole = 8 * depth
            counts.append(np.repeat(depth, 8))
            # Entry e of a run's lane-major block is term e // depth + 8 (e % depth).
            entry, per_entry = _offsets_within(whole), np.repeat(depth, whole)
            indices.append(np.repeat(first, whole) + entry // per_entry + entry % per_entry * 8)
            # Second product, row k: the join of run k's lanes (input row
            # k), then its remaining terms and a[0], which follow the joins
            # in the input, run after run.
            tail = terms[laned] - whole + 1
            ends_at = np.cumsum(tail) - 1
            rests = np.repeat(first + whole, tail) + _offsets_within(tail)
            rests[ends_at] = first - 1  # a[0] closes each run's row
            second_indptr = np.zeros(len(tail) + 1, dtype=np.int64)
            np.cumsum(tail + 1, out=second_indptr[1:])
            # Entry g of row k is join k at the row's start, else input
            # row runs + g - (k + 1): the rests in order.
            runs = len(tail)
            row = np.repeat(np.arange(runs), tail + 1)
            second = np.arange(second_indptr[-1]) + runs - 1 - row
            second[second_indptr[:-1]] = np.arange(runs)
            lanes = (ids[starts[laned]], second_indptr, second, rests)
        counts = np.concatenate(counts)
        indptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        long_runs = None
        if not (plain | laned).all():
            # reduceat sums from each index to the next (the last to the
            # end): so the long runs' starts and ends, where an end is not E.
            long = ~(plain | laned)
            long_starts = starts[long]
            cuts = np.union1d(long_starts, ends[long])
            cuts = cuts[cuts < len(ids)]
            long_runs = (ids[long_starts], cuts, np.searchsorted(cuts, long_starts))
        return SparseSum(
            len(ids),
            ids[starts[plain]],
            indptr,
            np.concatenate(indices),
            starts[plain],
            lanes,
            long_runs,
        )

    @staticmethod
    def segments(ids: np.ndarray) -> "SparseSum":
        """The sum numpy's kernels use for ``ids``: runs if sorted, else ``add.at``."""
        ids = _as_index(ids)
        if np.all(ids[1:] >= ids[:-1]):
            return SparseSum.reduceat(ids)
        return SparseSum.add_at(ids)

    def __call__(self, values: np.ndarray, num_rows: int) -> np.ndarray:
        values = np.asarray(values)
        if len(values) != self.num_inputs:
            raise ValueError("values must have one row per index entry")
        out = np.zeros((num_rows,) + values.shape[1:], dtype=values.dtype)
        width = math.prod(values.shape[1:])
        flat = values.reshape(self.num_inputs, width)
        out_flat = out.reshape(num_rows, width)
        if len(self.indptr) > 1:
            summed = _csr_product(self.indptr, self.indices, flat)
            plain = summed[: len(self.rows)]
            if self.heads is not None:
                plain += flat[self.heads]
            out_flat[self.rows] = plain
            if self.lanes is not None:
                rows, indptr, indices, rests = self.lanes
                lanes = summed[len(self.rows) :].reshape(len(rows), 8, width)
                joined = (
                    (lanes[:, 0] + lanes[:, 1]) + (lanes[:, 2] + lanes[:, 3])
                ) + ((lanes[:, 4] + lanes[:, 5]) + (lanes[:, 6] + lanes[:, 7]))
                terms = np.concatenate([joined, flat[rests]])
                out_flat[rows] = _csr_product(indptr, indices, terms)
        if self.long_runs is not None:
            rows, indices, picks = self.long_runs
            out_flat[rows] = np.add.reduceat(flat, indices, axis=0)[picks]
        return out


def _csr_product(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``CSR(indptr, indices, ones) @ rows`` for 2-D ``rows``.

    Row ``k`` adds ``rows[indices[indptr[k]:indptr[k + 1]]]`` one after
    the other, starting from zero.  This is the kernel behind scipy's
    ``csr_matrix @ dense``, called directly so a plan keeps no matrix
    object per dtype.
    """
    out = np.zeros((len(indptr) - 1, rows.shape[1]), dtype=rows.dtype)
    _sparsetools.csr_matvecs(
        len(out),
        len(rows),
        rows.shape[1],
        indptr,
        indices,
        np.ones(len(indices), dtype=rows.dtype),
        np.ascontiguousarray(rows).ravel(),
        out.ravel(),
    )
    return out


def add_at(out: np.ndarray, index, values: np.ndarray) -> None:
    """``np.add.at(out, index, values)``, bit for bit, on numpy's fast path.

    ``ufunc.at`` has a fast loop only for a 1-D target.  For an integer
    array index, or a tuple of them over ``out``'s leading axes, the row
    sums are therefore run as one ``np.add.at`` over ``out``'s flat
    elements: every element still receives its terms in index order, so
    the sums are unchanged.  Other indexes, and a ``out`` that is not
    C-contiguous, go to ``np.add.at`` as given.
    """
    arrays = index if isinstance(index, tuple) else (index,)
    if (
        not out.flags.c_contiguous
        or len(arrays) > out.ndim
        or not all(isinstance(a, np.ndarray) and a.dtype.kind in "iu" for a in arrays)
    ):
        np.add.at(out, index, values)
        return
    lead = len(arrays)
    if lead == 1:
        rows = arrays[0]
    else:
        # Negative entries count from the end, as in indexing; entries
        # out of range still raise IndexError, as np.add.at does.
        arrays = [np.where(a < 0, a + n, a) for a, n in zip(arrays, out.shape)]
        try:
            rows = np.ravel_multi_index(arrays, out.shape[:lead])
        except ValueError as error:
            raise IndexError(str(error)) from None
    tail = out.shape[lead:]
    width = math.prod(tail)
    # A negative row -k gives offsets -k * width + j: row n - k, as
    # indexing does.  intp, so a narrow index dtype cannot overflow.
    offsets = rows.astype(np.intp, copy=False).reshape(-1, 1) * width + np.arange(width)
    values = np.broadcast_to(values, rows.shape + tail)
    np.add.at(out.reshape(-1), offsets.reshape(-1), values.reshape(-1))


def _offsets_within(sizes: np.ndarray) -> np.ndarray:
    """``0, 1, ..., size - 1`` for each of ``sizes``, concatenated."""
    return np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def _run_bounds(ordered: np.ndarray) -> np.ndarray:
    """Start of each run of equal values in sorted ``ordered``, then ``E``.

    Also rejects negative ids, which ``ordered[0]`` would be.
    """
    if not len(ordered):
        return np.zeros(1, dtype=np.int64)
    if ordered[0] < 0:
        raise ValueError("index must be non-negative")
    changes = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    return np.concatenate(([0], changes, [len(ordered)]))


def _as_index(index: np.ndarray) -> np.ndarray:
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1:
        raise ValueError("index must be 1-D")
    return index
