"""Ranking metrics: MRR and Hits@k with deterministic tie handling."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np


def dedup_rows(keys: np.ndarray, dedup: bool = True) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Distinct rows of ``keys`` and each row's index among them.

    The pair feeds :func:`ranks_from_scores`: score the distinct rows,
    then pass the index as ``rows=``.  ``dedup=False`` returns ``keys``
    unchanged with a ``None`` index.
    """
    if not dedup:
        return keys, None
    unique, inverse = np.unique(keys, axis=0, return_inverse=True)
    # return_inverse shape for axis-unique varies across numpy 2.x.
    return unique, inverse.ravel()


#: Score bytes one counting block of :func:`count_ranks` covers (about
#: 1 MB), so the comparison masks stay cache-sized.
RANK_BLOCK_BYTES = 1 << 20


def ranks_from_scores(
    scores: np.ndarray,
    targets: np.ndarray,
    filter_mask: Optional[np.ndarray] = None,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Rank of each target among its candidate scores (1 = best).

    Ties are resolved by the *average* rank of the tied block, which is
    deterministic and unbiased (a model scoring everything equally gets
    the expected random rank, not rank 1).

    Comparisons run in the scores' own floating dtype: widening float32
    to float64 is exact and order-preserving, so it could not change a
    rank.  Counting goes block by block (:func:`count_ranks`), so no
    full-size temporary is built.

    Parameters
    ----------
    scores:
        ``(U, C)`` candidate scores, higher is better.
    targets:
        ``(B,)`` index of the ground-truth candidate per ranked row.
    filter_mask:
        Optional boolean ``(B, C)``; ``True`` marks candidates to exclude
        (known true facts under a filtered setting).  The target itself is
        never excluded.
    rows:
        Optional ``(B,)`` score row of each ranked row — the inverse map
        of a query dedup — so ``scores[rows]`` is never materialised.
        ``None`` means row ``i`` ranks against ``scores[i]``.
    """
    scores = np.asarray(scores)
    if not np.issubdtype(scores.dtype, np.floating):
        scores = scores.astype(np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64).ravel()
    if scores.ndim != 2 or len(targets) != (scores.shape[0] if rows is None else len(rows)):
        raise ValueError("scores must be (B, C) with one target per row")
    mask = None if filter_mask is None else np.asarray(filter_mask, dtype=bool)
    return count_ranks(scores, targets, mask, rows)


def count_ranks(
    scores: np.ndarray,
    targets: np.ndarray,
    mask: Optional[np.ndarray] = None,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The counting of :func:`ranks_from_scores`, on checked arguments.

    ``scores`` is a floating ``(U, C)`` array, ``targets`` and ``rows``
    int64 and ``mask`` boolean, as :func:`ranks_from_scores` leaves
    them.  Ranked rows are counted :data:`RANK_BLOCK_BYTES` of scores at
    a time.  :meth:`repro.core.model.RETIA.rank_entities` calls this on
    each decoder block directly, so both rankings share one
    implementation of the tie and filter rules.
    """
    count = len(targets)
    ranks = np.empty(count, dtype=np.float64)
    block = max(1, RANK_BLOCK_BYTES // max(1, scores.shape[1] * scores.itemsize))
    for start in range(0, count, block):
        stop = min(start + block, count)
        local = np.arange(stop - start)
        block_targets = targets[start:stop]
        block_scores = scores[start:stop] if rows is None else scores[rows[start:stop]]
        target_scores = block_scores[local, block_targets][:, None]
        greater = block_scores > target_scores
        ties = block_scores == target_scores
        if mask is not None:
            # Excluding a candidate is what the filtered setting's "set
            # it to -inf" does to these counts for any finite target.
            valid = ~mask[start:stop]
            valid[local, block_targets] = True
            greater &= valid
            ties &= valid
        # ties counts the target itself once.
        ranks[start:stop] = (
            1.0 + np.count_nonzero(greater, axis=1) + (np.count_nonzero(ties, axis=1) - 1) / 2.0
        )
    return ranks


def log_spaced_rank_edges(max_rank: int = 1_000_000) -> Tuple[float, ...]:
    """Fixed 1-2-3-5 log-spaced bucket edges for rank histograms.

    Ranks above the last edge land in the implied +inf bucket, so the
    histogram size is bounded regardless of candidate-set size.
    """
    edges: List[float] = []
    scale = 1
    while scale <= max_rank:
        for mantissa in (1, 2, 3, 5):
            value = mantissa * scale
            if value <= max_rank:
                edges.append(float(value))
        scale *= 10
    return tuple(edges)


#: Default bucket edges shared by diagnostics and the bounded mode.
RANK_HISTOGRAM_EDGES = log_spaced_rank_edges()


class RankAccumulator:
    """Streaming accumulator for MRR and Hits@k over many queries.

    Two storage modes:

    * default — every rank array is retained (:meth:`ranks` works),
      matching the original behaviour;
    * ``bounded=True`` — only running sums and a fixed log-spaced
      histogram are kept, so accumulating millions of eval queries (or
      one accumulator per relation) costs O(buckets) memory.  MRR,
      Hits@k and MR stay *exact* (they are plain sums); only the raw
      rank arrays are given up, and :meth:`ranks` raises.
    """

    def __init__(
        self,
        hits_at: Iterable[int] = (1, 3, 10),
        bounded: bool = False,
        bucket_edges: Optional[Iterable[float]] = None,
    ):
        self.hits_at = tuple(sorted(hits_at))
        self.bounded = bounded
        self._ranks: list = []
        edges = tuple(
            float(e) for e in (RANK_HISTOGRAM_EDGES if bucket_edges is None else bucket_edges)
        )
        if list(edges) != sorted(set(edges)):
            raise ValueError("bucket edges must be strictly increasing")
        self.bucket_edges = edges
        # Running sums (kept in both modes; the source of truth when
        # bounded).  The final slot of ``_bucket_counts`` is +inf.
        self._count = 0
        self._inv_sum = 0.0
        self._rank_sum = 0.0
        self._hits = {k: 0 for k in self.hits_at}
        self._bucket_counts = np.zeros(len(edges) + 1, dtype=np.int64)

    def update(self, ranks: np.ndarray) -> None:
        """Append a batch of ranks."""
        ranks = np.asarray(ranks, dtype=np.float64)
        self._count += len(ranks)
        if len(ranks):
            self._inv_sum += float((1.0 / ranks).sum())
            self._rank_sum += float(ranks.sum())
            for k in self.hits_at:
                self._hits[k] += int((ranks <= k).sum())
            buckets = np.searchsorted(self.bucket_edges, ranks, side="left")
            np.add.at(self._bucket_counts, buckets, 1)
        if not self.bounded:
            self._ranks.append(ranks)

    @property
    def count(self) -> int:
        """Total queries accumulated."""
        return self._count

    def ranks(self) -> np.ndarray:
        """All accumulated ranks as one array (default mode only)."""
        if self.bounded:
            raise ValueError("bounded accumulator does not retain raw rank arrays")
        if not self._ranks:
            return np.zeros(0)
        return np.concatenate(self._ranks)

    def histogram(self) -> List[dict]:
        """Cumulative per-bucket counts (``le`` edges, last is +inf)."""
        cumulative = np.cumsum(self._bucket_counts)
        return [
            {"le": edge, "count": int(c)}
            for edge, c in zip(list(self.bucket_edges) + ["+inf"], cumulative)
        ]

    def summary(self) -> Dict[str, float]:
        """MRR, Hits@k (percent, paper convention) and Mean Rank."""
        if not self._count:
            return {
                "MRR": 0.0,
                **{f"Hits@{k}": 0.0 for k in self.hits_at},
                "MR": 0.0,
                "count": 0,
            }
        result = {"MRR": self._inv_sum / self._count * 100.0}
        for k in self.hits_at:
            result[f"Hits@{k}"] = self._hits[k] / self._count * 100.0
        result["MR"] = self._rank_sum / self._count
        result["count"] = self._count
        return result
