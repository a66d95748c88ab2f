"""Pluggable candidate-scoring strategies for the entity axis.

The decoder's reference path scores a query block against *all* ``C``
candidate entities at once (``(T, B, d) @ (T, d, C)`` matmul, softmax
over candidates, sum over the T historical snapshots).  That costs
``O(B·C)`` memory for the score matrix — prohibitive at large entity
vocabularies.  A :class:`CandidateScorer` makes the strategy pluggable:

``dense``
    :class:`DenseScorer` — the seam's exact reference: one block, full
    score matrix.
``blocked``
    :class:`BlockedScorer` — streams cache-friendly query blocks (and
    candidate chunks inside the logit kernel), ranking each block's
    gold entities immediately so the full ``(B, C)`` matrix is never
    materialised.  **Bit-identical** scores and ranks to ``dense``.
``topk``
    :class:`TopKScorer` — blocked streaming plus partial top-k
    selection (argpartition + explicit threshold-tie handling, no full
    sort).  Gold ranks are still computed by exact counting, so MRR /
    Hits are unchanged even when the gold entity falls outside the
    top-k.
``history``
    :class:`HistoryFilteredScorer` — RE-Net-style candidate
    restriction to frequency/recency copies from the reveal stream.
    An explicit approximation (``exact = False``) — except when its
    budget covers the whole vocabulary, where it degenerates to the
    exact blocked path.

Why the strategies can promise bit-identity
-------------------------------------------
BLAS matmul kernels change their internal reduction order with the
block shape, so a chunked matmul is *not* bitwise-reproducible against
the unchunked one.  The seam therefore computes logits with
``np.einsum`` (non-optimized), whose per-element sequential reduction
over ``d`` is independent of how the query/candidate axes are blocked;
softmax (the shared in-place kernel
:func:`repro.autograd.functional.softmax_array`) runs on full candidate
rows (the denominator needs every candidate, which is also why
"pruned" strategies still touch each candidate's logit once); and the
sum over T hits each element independently.  Every per-element value
is therefore identical at any block size — asserted to the last ulp by
``tests/test_scale.py``.  Gold ranks are always counted by
:func:`repro.eval.metrics.ranks_from_scores`.

The *default* evaluation path (``model.scorer is None``) keeps the
decoder's own no-grad decode,
:meth:`repro.core.decoder.ConvTransE.summed_probabilities`, and it
stays the default for two reasons.  Its single BLAS matmul is faster
than the non-BLAS ``einsum`` kernel above (DESIGN.md §9 has the
measurement on ICEWS18's 23k-entity vocabulary).  And the seam's
``dense`` reference differs from it by sub-ulp logit rounding: the
``scale-gate`` CI job checks that this is rank-invisible on ICEWS14,
but on wider vocabularies it can move tied ranks, so switching the
default would shift checked metrics.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.autograd.functional import softmax_array
from repro.eval.metrics import ranks_from_scores
from repro.scale.candidates import HistoryCandidateIndex

#: Default query rows per streamed block (memory ~ T · block · C floats).
DEFAULT_QUERY_BLOCK = 128
#: Default candidate chunk inside the logit kernel (per-slice memmap reads).
DEFAULT_CANDIDATE_BLOCK = 8192


def select_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores, deterministically ordered.

    Descending score, ties broken by ascending index — the same order a
    stable full sort on ``(-score, index)`` yields, but computed with an
    ``O(C)`` partition plus an ``O(k log k)`` sort of the survivors.
    Boundary ties at the k-th value are resolved by smallest index, so
    the result never depends on ``argpartition``'s internal pivot walk.
    """
    s = np.asarray(scores)
    if s.ndim != 1:
        raise ValueError(f"select_topk expects a 1-D score vector, got shape {s.shape}")
    k = int(k)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    n = s.shape[0]
    if k >= n:
        return np.lexsort((np.arange(n), -s)).astype(np.int64)
    partition = np.argpartition(-s, k - 1)
    threshold = s[partition[k - 1]]
    above = np.nonzero(s > threshold)[0]
    at_threshold = np.nonzero(s == threshold)[0]  # ascending index already
    take = np.concatenate([above, at_threshold[: k - above.size]])
    order = np.lexsort((take, -s[take]))
    return take[order].astype(np.int64)


class CandidateScorer:
    """Strategy interface: summed decoder probabilities over candidates.

    Inputs are plain numpy (the seam runs under ``no_grad``):

    * ``queries`` — ``(T, U, d)`` decoder query representations, one row
      per (deduplicated) query and historical snapshot;
    * ``candidates`` — a sequence of T per-snapshot ``(C, d)`` candidate
      tables (ndarray or ``np.memmap``; blocked strategies read them in
      slices, so a memmap never loads wholesale);
    * ``targets`` / ``mask`` / ``inverse`` — per *original* query row:
      the gold candidate, the optional filtered-setting exclusion mask
      (``True`` = excluded, the target itself never is), and the
      row → unique-query map produced by dedup (``None`` = identity).

    ``exact`` declares the contract: exact strategies return ranks
    bitwise equal to :class:`DenseScorer` (and therefore identical MRR /
    Hits); non-exact strategies are approximations and must never be
    mixed into comparisons with exact runs — ``check_run_health.py``
    refuses runs whose events disagree on the recorded scorer spec.
    """

    name = "abstract"
    exact = True
    #: Set on strategies that must ingest the reveal stream before ranking.
    needs_history = False

    def spec(self) -> str:
        """Round-trippable strategy spec (see :func:`get_scorer`)."""
        return self.name

    # Subclasses implement the streamed block scorer.
    def _block_sum_probs(
        self,
        queries: np.ndarray,
        candidates: Sequence[np.ndarray],
        start: int,
        stop: int,
    ) -> np.ndarray:
        raise NotImplementedError

    def _query_block(self, total: int) -> int:
        return total

    # ------------------------------------------------------------------
    # Derived API
    # ------------------------------------------------------------------
    def sum_probs(self, queries: np.ndarray, candidates: Sequence[np.ndarray]) -> np.ndarray:
        """Full ``(U, C)`` summed probabilities (serve-scale batches)."""
        total = queries.shape[1]
        num_candidates = candidates[0].shape[0]
        out = np.empty((total, num_candidates), dtype=queries.dtype)
        block = max(1, self._query_block(total))
        for start in range(0, total, block):
            stop = min(start + block, total)
            out[start:stop] = self._block_sum_probs(queries, candidates, start, stop)
        return out

    def ranks(
        self,
        queries: np.ndarray,
        candidates: Sequence[np.ndarray],
        targets: np.ndarray,
        *,
        mask: Optional[np.ndarray] = None,
        inverse: Optional[np.ndarray] = None,
        query_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Average-tie gold ranks, streamed block by block.

        Each query block's summed probabilities go straight to
        :func:`repro.eval.metrics.ranks_from_scores` with the rows it
        serves, so the ``(B, C)`` score matrix only ever exists one
        query block at a time.
        """
        del query_ids  # used by history-filtered scoring only
        targets = np.asarray(targets, dtype=np.int64)
        rows_total = len(targets)
        total = queries.shape[1]
        if inverse is None:
            inverse = np.arange(rows_total, dtype=np.int64)
        else:
            inverse = np.asarray(inverse, dtype=np.int64).ravel()
        ranks = np.empty(rows_total, dtype=np.float64)
        block = max(1, self._query_block(total))
        for start in range(0, total, block):
            stop = min(start + block, total)
            rows = np.nonzero((inverse >= start) & (inverse < stop))[0]
            if not rows.size:
                continue
            summed = self._block_sum_probs(queries, candidates, start, stop)
            ranks[rows] = ranks_from_scores(
                summed,
                targets[rows],
                None if mask is None else mask[rows],
                rows=inverse[rows] - start,
            )
        return ranks

    def topk(
        self, queries: np.ndarray, candidates: Sequence[np.ndarray], k: int
    ) -> List[np.ndarray]:
        """Per-query top-k candidate indices via :func:`select_topk`."""
        total = queries.shape[1]
        block = max(1, self._query_block(total))
        out: List[np.ndarray] = []
        for start in range(0, total, block):
            stop = min(start + block, total)
            summed = self._block_sum_probs(queries, candidates, start, stop)
            out.extend(select_topk(row, k) for row in summed)
        return out


class BlockedScorer(CandidateScorer):
    """Exact streaming scorer: query blocks, chunked candidate reads.

    The logit kernel is per-element deterministic (see the module
    docstring), softmax always sees full candidate rows, and the T-sum
    touches each element independently — so any ``query_block`` /
    ``candidate_block`` yields the same bits as :class:`DenseScorer`.
    Peak score memory is ``T × query_block × C`` instead of
    ``T × B × C``.
    """

    name = "blocked"
    exact = True

    def __init__(
        self,
        query_block: Optional[int] = DEFAULT_QUERY_BLOCK,
        candidate_block: Optional[int] = DEFAULT_CANDIDATE_BLOCK,
    ):
        if query_block is not None and query_block < 1:
            raise ValueError("query_block must be >= 1")
        if candidate_block is not None and candidate_block < 1:
            raise ValueError("candidate_block must be >= 1")
        self.query_block = query_block
        self.candidate_block = candidate_block

    def spec(self) -> str:
        parts = [self.name]
        if self.query_block is not None:
            parts.append(str(self.query_block))
            if self.candidate_block is not None:
                parts.append(str(self.candidate_block))
        return ":".join(parts)

    def _query_block(self, total: int) -> int:
        return total if self.query_block is None else min(self.query_block, total)

    def _block_sum_probs(
        self,
        queries: np.ndarray,
        candidates: Sequence[np.ndarray],
        start: int,
        stop: int,
    ) -> np.ndarray:
        snaps = queries.shape[0]
        num_candidates = candidates[0].shape[0]
        logits = np.empty((snaps, stop - start, num_candidates), dtype=queries.dtype)
        chunk = self.candidate_block or num_candidates
        for t in range(snaps):
            block_queries = queries[t, start:stop]
            table = candidates[t]
            for cs in range(0, num_candidates, chunk):
                ce = min(cs + chunk, num_candidates)
                # Non-optimized einsum: sequential per-element reduction
                # over d, invariant to this blocking (unlike BLAS matmul).
                np.einsum(
                    "bd,cd->bc",
                    block_queries,
                    np.asarray(table[cs:ce]),
                    out=logits[t, :, cs:ce],
                )
        softmax_array(logits, axis=-1, out=logits)
        return logits.sum(axis=0)


class DenseScorer(BlockedScorer):
    """The seam's exact reference: one block over everything."""

    name = "dense"
    exact = True

    def __init__(self):
        super().__init__(query_block=None, candidate_block=None)

    def spec(self) -> str:
        return self.name


class TopKScorer(BlockedScorer):
    """Blocked streaming with partial top-k selection.

    Ranking metrics are *identical* to ``dense``/``blocked`` — gold
    ranks come from the same exact counting over the same bits, even
    when the gold entity is outside the top-k.  What ``topk`` buys is
    the selection side (serving, candidate export): per query block the
    k best candidates are found by partition + threshold-tie handling
    instead of a full ``O(C log C)`` sort, and only ``k`` of the ``C``
    scores per query survive the block.
    """

    name = "topk"
    exact = True

    def __init__(
        self,
        k: int = 10,
        query_block: Optional[int] = DEFAULT_QUERY_BLOCK,
        candidate_block: Optional[int] = DEFAULT_CANDIDATE_BLOCK,
    ):
        super().__init__(query_block=query_block, candidate_block=candidate_block)
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)

    def spec(self) -> str:
        parts = [self.name, str(self.k)]
        if self.query_block is not None:
            parts.append(str(self.query_block))
            if self.candidate_block is not None:
                parts.append(str(self.candidate_block))
        return ":".join(parts)

    def topk(
        self,
        queries: np.ndarray,
        candidates: Sequence[np.ndarray],
        k: Optional[int] = None,
    ) -> List[np.ndarray]:
        return super().topk(queries, candidates, self.k if k is None else k)


class HistoryFilteredScorer(CandidateScorer):
    """Approximate scoring over history-filtered candidate copies.

    Candidates for a ``(subject, relation)`` query are the objects that
    the reveal stream has shown for that pair (then that relation, then
    globally), ranked by frequency and recency — the RE-Net "copy"
    observation that repeated facts carry most of the rank mass.  The
    gold entity is always appended, so every query still gets a rank,
    but softmax renormalises over the restricted set: scores and ranks
    are **approximations** (``exact = False``) and must not be compared
    against exact runs.

    With ``budget >= C`` the restriction vanishes and the scorer
    delegates to the exact blocked path — the approximation lattice is
    anchored to the exact contract at its top.
    """

    name = "history"
    exact = False
    needs_history = True

    def __init__(
        self,
        budget: int = 64,
        index: Optional[HistoryCandidateIndex] = None,
        query_block: Optional[int] = DEFAULT_QUERY_BLOCK,
        candidate_block: Optional[int] = DEFAULT_CANDIDATE_BLOCK,
    ):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.budget = int(budget)
        self.index = index if index is not None else HistoryCandidateIndex()
        self._exact_fallback = BlockedScorer(query_block, candidate_block)

    def spec(self) -> str:
        return f"{self.name}:{self.budget}"

    def sync_history(self, snapshots, num_relations: int) -> None:
        """Ingest reveal-stream snapshots the index has not seen yet."""
        self.index.record(snapshots, num_relations)

    def sum_probs(self, queries: np.ndarray, candidates: Sequence[np.ndarray]) -> np.ndarray:
        # Full-matrix scoring has no restricted meaning without per-row
        # candidate sets; serve-style callers get the exact path.
        return self._exact_fallback.sum_probs(queries, candidates)

    def ranks(
        self,
        queries: np.ndarray,
        candidates: Sequence[np.ndarray],
        targets: np.ndarray,
        *,
        mask: Optional[np.ndarray] = None,
        inverse: Optional[np.ndarray] = None,
        query_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        num_candidates = candidates[0].shape[0]
        if self.budget >= num_candidates:
            return self._exact_fallback.ranks(
                queries, candidates, targets, mask=mask, inverse=inverse
            )
        if query_ids is None:
            raise ValueError("history-filtered ranking needs the integer query ids")
        targets = np.asarray(targets, dtype=np.int64)
        rows_total = len(targets)
        if inverse is None:
            inverse = np.arange(rows_total, dtype=np.int64)
        else:
            inverse = np.asarray(inverse, dtype=np.int64).ravel()
        query_ids = np.asarray(query_ids, dtype=np.int64)
        ranks = np.empty(rows_total, dtype=np.float64)
        snaps = queries.shape[0]
        for row in range(rows_total):
            unique_row = int(inverse[row])
            subject, relation = query_ids[unique_row]
            ids = self.index.candidates(int(subject), int(relation), self.budget)
            ids = np.union1d(ids, [int(targets[row])])  # sorted ascending
            if mask is not None:
                keep = ~mask[row, ids]
                keep[ids == targets[row]] = True
                ids = ids[keep]
            gathered = [np.asarray(candidates[t][ids]) for t in range(snaps)]
            logits = np.stack(
                [np.einsum("d,cd->c", queries[t, unique_row], gathered[t]) for t in range(snaps)]
            )
            scores = softmax_array(logits, axis=-1, out=logits).sum(axis=0)
            target = np.searchsorted(ids, targets[row])
            ranks[row] = ranks_from_scores(scores[None, :], [target])[0]
        return ranks


def get_scorer(spec) -> Optional[CandidateScorer]:
    """Parse a scorer spec string into a strategy instance.

    ``None`` (and ``"legacy"``) mean "no scorer": the model keeps its
    legacy dense matmul path, bit-for-bit.  Otherwise::

        dense                   exact reference (one block)
        blocked[:QB[:CB]]       exact streaming, QB query rows / CB candidates
        topk:K[:QB[:CB]]        exact ranks + partial top-K selection
        history:BUDGET          approximate history-filtered candidates

    A :class:`CandidateScorer` instance passes through unchanged.
    """
    if spec is None or isinstance(spec, CandidateScorer):
        return spec
    text = str(spec).strip().lower()
    if not text or text == "legacy":
        return None
    head, *params = text.split(":")
    try:
        if head == DenseScorer.name and not params:
            return DenseScorer()
        if head == BlockedScorer.name and len(params) <= 2:
            numbers = [int(p) for p in params]
            return BlockedScorer(*numbers) if numbers else BlockedScorer()
        if head == TopKScorer.name and 1 <= len(params) <= 3:
            return TopKScorer(*[int(p) for p in params])
        if head == HistoryFilteredScorer.name and len(params) == 1:
            return HistoryFilteredScorer(budget=int(params[0]))
    except ValueError as exc:
        raise ValueError(f"bad scorer spec {spec!r}: {exc}") from exc
    raise ValueError(
        f"unknown scorer spec {spec!r} (expected dense, blocked[:QB[:CB]], "
        "topk:K[:QB[:CB]], history:BUDGET, or legacy)"
    )
