"""Entity-axis scaling: pluggable candidate scoring and memmap tables.

The dense decoder scores every query against all ``C`` candidate
entities at once — fine at ICEWS scale, impossible at the
millions-of-entities vocabularies the ROADMAP north-star asks for.
This package makes candidate scoring a *strategy*:

* :class:`~repro.scale.scorers.BlockedScorer` — streams query/candidate
  blocks through a summation-order-invariant kernel; bit-identical
  scores at every block size, bounded memory.  ``BlockedScorer(None,
  None)`` is the unblocked reference.
* :class:`~repro.scale.scorers.HistoryFilteredScorer` — RE-Net-style
  frequency/recency candidate restriction from the reveal stream; an
  explicit approximation (``exact = False``).

Without a scorer a model keeps its legacy matmul decode (spec
``legacy``).  :func:`~repro.scale.scorers.select_topk` is the
deterministic top-k selection serving uses.

:class:`~repro.scale.store.EmbeddingStore` backs embedding tables with
either an in-RAM array or a lazily-opened ``np.memmap``, and
:class:`~repro.scale.frozen.FrozenWindowModel` serves a frozen evolved
window straight from such stores so vocabularies larger than RAM can be
evaluated.  See DESIGN.md §9 for the exactness contract.
"""

from repro.scale.candidates import HistoryCandidateIndex
from repro.scale.frozen import FrozenWindowModel
from repro.scale.scorers import (
    BlockedScorer,
    CandidateScorer,
    HistoryFilteredScorer,
    get_scorer,
    select_topk,
)
from repro.scale.store import EmbeddingStore

__all__ = [
    "BlockedScorer",
    "CandidateScorer",
    "EmbeddingStore",
    "FrozenWindowModel",
    "HistoryCandidateIndex",
    "HistoryFilteredScorer",
    "get_scorer",
    "select_topk",
]
