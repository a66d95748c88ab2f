"""Graceful SIGINT/SIGTERM handling for long training runs.

:class:`GracefulInterrupt` is a context manager that swaps in signal
handlers which only set a flag; the training loop polls the flag after
each batch and raises :class:`TrainingInterrupted`, which names the
newest epoch-boundary checkpoint (a resume re-runs the interrupted
epoch from its start).  The CLI maps that to
:data:`EXIT_RESUMABLE` (75, ``EX_TEMPFAIL``) so schedulers can tell "re-
queue me" apart from a real failure.

Signal handlers can only be installed from the main thread; elsewhere
(e.g. a worker thread running tests, or a process-pool evaluation
worker) the context manager degrades to an inert flag that never
triggers, with a warning so the degradation is visible.

A *second* signal of the same kind escalates: the previous handlers are
restored immediately and the signal is re-raised against them, so a
user whose first Ctrl-C appears swallowed (mid-batch, before the poll)
can still kill the run the default way.  The previous handlers are
always restored on ``__exit__``, so nested/sequential uses chain
correctly.
"""

from __future__ import annotations

import signal
import threading
import warnings
from typing import Optional

#: sysexits.h EX_TEMPFAIL — the run was interrupted but is resumable.
EXIT_RESUMABLE = 75

_SIGNALS = (signal.SIGINT, signal.SIGTERM)


class TrainingInterrupted(RuntimeError):
    """Raised by the trainer when SIGINT/SIGTERM stops a run.

    ``checkpoint_path`` is the newest epoch-boundary checkpoint, which a
    resume continues from (None when the trainer has no checkpoint
    directory or no epoch has finished yet).
    """

    def __init__(self, message: str, checkpoint_path: Optional[str] = None,
                 signal_number: Optional[int] = None):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path
        self.signal_number = signal_number


class GracefulInterrupt:
    """Context manager turning SIGINT/SIGTERM into a pollable flag.

    First signal: set :attr:`triggered` and return (the training loop
    stops after the current batch).  Second signal of the same
    kind: restore the previous handlers and re-raise, so the default
    behaviour (usually immediate termination) takes over.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.triggered = False
        self.signal_number: Optional[int] = None
        self._previous = {}
        self._active = False

    def _handler(self, signum, frame) -> None:
        if self.triggered:
            # Escalate: put the previous handlers back and re-deliver the
            # signal to them — a second Ctrl-C must not be swallowed.
            self._restore()
            signal.raise_signal(signum)
            return
        self.triggered = True
        self.signal_number = signum

    def __enter__(self) -> "GracefulInterrupt":
        if self._active:
            raise RuntimeError("GracefulInterrupt context is not re-entrant")
        self.triggered = False
        self.signal_number = None
        if self.enabled:
            if threading.current_thread() is threading.main_thread():
                for sig in _SIGNALS:
                    try:
                        self._previous[sig] = signal.signal(sig, self._handler)
                    except (ValueError, OSError):
                        pass
            else:
                # Worker threads/processes cannot install handlers; stay
                # inert rather than crash, but say so.
                warnings.warn(
                    "GracefulInterrupt used off the main thread: signal "
                    "handlers not installed, interrupts will not be caught",
                    RuntimeWarning,
                    stacklevel=2,
                )
        self._active = True
        return self

    def _restore(self) -> None:
        for sig, previous in self._previous.items():
            try:
                signal.signal(sig, previous)
            except (ValueError, OSError):
                pass
        self._previous.clear()

    def __exit__(self, *exc_info) -> None:
        self._restore()
        self._active = False
