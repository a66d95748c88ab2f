"""Deterministic partitioning primitives for sharded evaluation.

Everything in :mod:`repro.parallel` rests on one rule: **the math is
defined by the plan, never by the execution**.  A shard plan depends
only on the data (the ordered test timestamps); worker counts, thread
scheduling and process pools only decide *who* computes each shard, not
*what* is computed.  :func:`shard_bounds` gives contiguous
``[start, stop)`` splits of ``n`` items into ``k`` parts — the same
splits ``np.array_split`` produces — so a shard's content is a pure
function of ``(n, k)``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, TypeVar

T = TypeVar("T")


def shard_bounds(n_items: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` bounds splitting ``n_items`` into
    ``n_shards`` near-equal parts (first ``n_items % n_shards`` parts get
    the extra item — the ``np.array_split`` convention).

    Bounds for empty shards (``n_shards > n_items``) are included as
    zero-length ranges so shard indices stay stable.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if n_items < 0:
        raise ValueError("n_items must be >= 0")
    base, extra = divmod(n_items, n_shards)
    bounds = []
    start = 0
    for index in range(n_shards):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def shard_sequence(items: Sequence[T], n_shards: int) -> List[List[T]]:
    """Split ``items`` into ``n_shards`` contiguous lists (some may be
    empty), preserving order."""
    return [list(items[a:b]) for a, b in shard_bounds(len(items), n_shards)]
