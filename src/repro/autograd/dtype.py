"""The configurable floating-point precision policy.

Every array the autograd layer creates from non-Tensor input (scalars,
lists, integer index arrays promoted to float, dropout masks, segment
normalisers, ...) is cast to a *default dtype*.  Historically that was a
hard-coded ``np.float64``; this module makes it a first-class
configuration so float32 compute — roughly half the memory traffic and
a large GEMM speedup on CPU — can be switched on per run or per model.

Two usage styles:

* process-wide — ``set_default_dtype("float32")`` (what the CLI's
  ``--dtype`` flag does for a whole train/evaluate/serve run);
* scoped — ``with DtypePolicy("float32"): ...`` (what :class:`RETIA`
  wraps its constructor and forward entry points in, so models of
  different dtypes coexist in one process, e.g. the float32-vs-float64
  parity tests).

Gradients never consult the policy directly: a tensor's gradient is
always accumulated in *that tensor's own dtype* (see
``Tensor._accumulate``), so a float64 reference model stays float64 even
while a float32 policy is active around it.

Only ``float32`` and ``float64`` are supported — half precision loses
too much of Eq. 11-14's summed-probability mass to be meaningful on the
CPU path, and integer/complex defaults would break autograd outright.
"""

from __future__ import annotations

import threading
from typing import Union

import numpy as np

DtypeLike = Union[str, type, np.dtype]

#: The dtypes the policy accepts.
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_state = threading.local()


def resolve_dtype(dtype: DtypeLike) -> np.dtype:
    """Normalise ``dtype`` to a numpy dtype, rejecting unsupported ones."""
    try:
        resolved = np.dtype(dtype)
    except TypeError as exc:
        raise ValueError(f"not a dtype: {dtype!r}") from exc
    if resolved not in SUPPORTED_DTYPES:
        supported = ", ".join(d.name for d in SUPPORTED_DTYPES)
        raise ValueError(
            f"unsupported default dtype {resolved.name!r} (supported: {supported})"
        )
    return resolved


def default_dtype() -> np.dtype:
    """The dtype new float arrays are created with on this thread."""
    return getattr(_state, "dtype", SUPPORTED_DTYPES[1])


def set_default_dtype(dtype: DtypeLike) -> np.dtype:
    """Set the process default dtype; returns the *previous* default."""
    previous = default_dtype()
    _state.dtype = resolve_dtype(dtype)
    return previous


class DtypePolicy:
    """Reentrant context manager pinning the default dtype in a scope.

    >>> with DtypePolicy("float32"):
    ...     Tensor([1.0, 2.0]).data.dtype  # float32
    """

    def __init__(self, dtype: DtypeLike):
        self.dtype = resolve_dtype(dtype)
        self._previous: list = []

    def __enter__(self) -> "DtypePolicy":
        self._previous.append(set_default_dtype(self.dtype))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        set_default_dtype(self._previous.pop())

    def __repr__(self) -> str:
        return f"DtypePolicy({self.dtype.name!r})"
