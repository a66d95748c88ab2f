"""Deterministic sharded evaluation.

The package-wide contract (see :mod:`repro.parallel.plan`): the math is
defined by the shard plan, never by the execution — worker counts
change wall-clock time, not one bit of any metric or diagnostics
decomposition.  There is no sharded entry point of its own:
:func:`~repro.eval.evaluate_extrapolation` and
:func:`~repro.eval.diagnose_extrapolation` take ``workers`` and, above
1, score through the process pool in :mod:`repro.parallel.eval`, which
raises :class:`ShardedEvalError` for models it cannot shard.  Training
has one path, the serial loop in :class:`~repro.core.Trainer`.
"""

from repro.parallel.eval import ShardedEvalError
from repro.parallel.plan import shard_bounds, shard_sequence

__all__ = [
    "ShardedEvalError",
    "shard_bounds",
    "shard_sequence",
]
