"""Request deadlines, and a contextvar tunnel into the executors.

A :class:`Deadline` is an absolute point on the monotonic clock by
which a request's work must finish.  The service stamps one on each
request from its ``timeout_ms`` field (or ``serve
--default-timeout-ms``); it is checked **cooperatively** at the three
places where shedding is cheap and results stay bit-identical:

* at admission (``MiningService._mine``) -- an already-expired request
  is answered 504 without queueing;
* at batch formation and again on the mine thread
  (:class:`~repro.service.batcher.MicroBatcher`) -- an expired request
  is completed with 504 *instead of* mined, and because mining is
  batch-composition-invariant its surviving batchmates still get
  bit-identical results;
* in the executors (:mod:`repro.engine.executors`), before each kernel
  call or per-document task -- a whole batch whose deadline passed
  mid-run stops mining further documents and raises
  :class:`DeadlineExceeded`.

The executor learns the active batch deadline through a contextvar set
around the ``mine_documents`` call (:func:`set_active_deadline`), so
``CorpusEngine.mine_documents`` keeps its signature and test fakes keep
working.

Examples
--------
>>> deadline = Deadline.from_timeout_ms(50)
>>> deadline.expired()
False
>>> Deadline(expires_at=0.0).expired()
True
"""

from __future__ import annotations

import contextvars
import time
from dataclasses import dataclass

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "active_deadline",
    "reset_active_deadline",
    "set_active_deadline",
]


class DeadlineExceeded(Exception):
    """Raised when work is shed because its deadline already passed."""


@dataclass(frozen=True)
class Deadline:
    """An absolute expiry on the monotonic clock.

    Examples
    --------
    >>> late = Deadline(expires_at=time.monotonic() + 60.0)
    >>> late.expired()
    False
    >>> late.remaining() > 0
    True
    """

    expires_at: float

    @classmethod
    def from_timeout_ms(cls, timeout_ms: float | None) -> "Deadline | None":
        """A deadline ``timeout_ms`` from now, or ``None`` for no limit."""
        if timeout_ms is None:
            return None
        return cls(expires_at=time.monotonic() + timeout_ms / 1000.0)

    def remaining(self) -> float:
        """Seconds until expiry (negative once past)."""
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        """Whether the deadline has passed."""
        return time.monotonic() >= self.expires_at


_ACTIVE_DEADLINE: contextvars.ContextVar[Deadline | None] = (
    contextvars.ContextVar("repro_active_deadline", default=None)
)


def set_active_deadline(deadline: Deadline | None):
    """Install ``deadline`` for executors below this frame; returns a token.

    The batcher wraps its ``engine.mine_documents`` call so the
    executor can shed expired work without a signature change.
    """
    return _ACTIVE_DEADLINE.set(deadline)


def reset_active_deadline(token) -> None:
    """Undo :func:`set_active_deadline` (pass its return value)."""
    _ACTIVE_DEADLINE.reset(token)


def active_deadline() -> Deadline | None:
    """The deadline installed by the nearest enclosing ``set_active_deadline``."""
    return _ACTIVE_DEADLINE.get()
