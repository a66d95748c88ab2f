"""Link-prediction evaluation for TKG extrapolation.

Implements the paper's protocol: rank the ground-truth entity/relation
among all candidates, report MRR and Hits@{1,3,10}.  Entity forecasting
averages the subject- and object-query directions (following RE-GCN);
relation forecasting reports MRR.  The paper reports the **raw** setting;
static-filtered and time-aware-filtered settings are implemented as well
for completeness.

:mod:`repro.eval.diagnostics` decomposes the same protocol along
per-relation / per-timestamp / seen-unseen axes with bounded memory —
the ``repro.cli diagnose`` view.  Both views run the one in-process
score-then-reveal loop of :mod:`repro.eval.protocol`.
"""

from repro.eval.metrics import (
    RANK_HISTOGRAM_EDGES,
    RankAccumulator,
    log_spaced_rank_edges,
    ranks_from_scores,
)
from repro.eval.filters import FilterIndex
from repro.eval.interface import ExtrapolationModel
from repro.eval.protocol import (
    EvaluationResult,
    TimestampScores,
    evaluate_extrapolation,
    score_timestamp,
)
from repro.eval.diagnostics import (
    DiagnosticsAccumulators,
    DiagnosticsReport,
    diagnose_extrapolation,
    format_diagnostics,
    known_entities_of,
)

__all__ = [
    "RANK_HISTOGRAM_EDGES",
    "RankAccumulator",
    "log_spaced_rank_edges",
    "ranks_from_scores",
    "FilterIndex",
    "ExtrapolationModel",
    "EvaluationResult",
    "TimestampScores",
    "evaluate_extrapolation",
    "score_timestamp",
    "DiagnosticsAccumulators",
    "DiagnosticsReport",
    "diagnose_extrapolation",
    "format_diagnostics",
    "known_entities_of",
]
