"""Deterministic sharded evaluation.

The package-wide contract (see :mod:`repro.parallel.plan`): the math is
defined by the shard plan, never by the execution — worker counts
change wall-clock time, not one bit of any metric or diagnostics
decomposition.  Training has one path, the serial loop in
:class:`~repro.core.Trainer`.
"""

from repro.parallel.eval import (
    DEFAULT_SHARD_TIMEOUT,
    ShardedEvalError,
    diagnose_extrapolation_sharded,
    evaluate_extrapolation_sharded,
)
from repro.parallel.plan import shard_bounds, shard_sequence

__all__ = [
    "DEFAULT_SHARD_TIMEOUT",
    "ShardedEvalError",
    "diagnose_extrapolation_sharded",
    "evaluate_extrapolation_sharded",
    "shard_bounds",
    "shard_sequence",
]
