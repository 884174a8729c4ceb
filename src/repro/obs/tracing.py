"""Request tracing: one span tree per request, across threads.

The serving stack hands a request through four execution contexts --
the asyncio event loop (parse/serialize), the micro-batcher queue, the
batcher's mining thread, and (with ``--workers``) the engine's mining
thread pool.  A wall-clock number alone cannot say *where* a slow request
spent its time; a :class:`Trace` can: it is an append-only list of
named :class:`Span` intervals with parent links, built as the request
flows, rendered as a tree in ``GET /stats?trace=1``.

The canonical span tree for one ``POST /mine``::

    request
    ├─ parse          JSON decode + validation (event loop or offloaded)
    ├─ queue_wait     submit() -> the batch's mining thread picks it up
    ├─ batch_mine     the shared mine_documents pass (this batch)
    │  └─ kernel      this request's share of kernel scan time
    ├─ finalize       calibration + correction for this request
    └─ serialize      payload build + JSON encode

The batcher carries the :class:`Trace` object itself inside its queue
entries and records spans explicitly with :meth:`Trace.add` (safe from
any thread -- span storage is lock-guarded), so no engine call
signature changes (fake engines in the test-suite subclass
``mine_documents`` and must keep working).

:class:`TraceRecorder` keeps two bounded ring buffers -- the most
recent traces and the slowest-over-threshold ones -- so a spike can be
diagnosed *after* it happened, from the still-running service.
"""

from __future__ import annotations

import contextlib
import contextvars
import copy
import threading
import time
import uuid
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Trace",
    "TraceRecorder",
    "active_trace",
    "new_trace_id",
    "valid_trace_id",
]


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (random UUID prefix).

    >>> len(new_trace_id())
    16
    """
    return uuid.uuid4().hex[:16]


#: Accepted shape for an *inbound* trace id: hex digits plus dashes so
#: W3C-style ids interoperate, bounded so a hostile header cannot bloat
#: logs or the trace rings.
_TRACE_ID_CHARS = frozenset("0123456789abcdefABCDEF-")


def valid_trace_id(value: object) -> bool:
    """Whether ``value`` is acceptable as an inbound ``X-Trace-Id``.

    The service *adopts* trace ids it did not mint (the router, or any
    upstream proxy, sends them on the wire), so the shape is validated
    before one lands in logs, metrics exemplars, or the trace rings:
    8-64 characters of hex digits and dashes.

    >>> valid_trace_id(new_trace_id())
    True
    >>> valid_trace_id("../etc/passwd")
    False
    """
    if not isinstance(value, str):
        return False
    if not 8 <= len(value) <= 64:
        return False
    return all(ch in _TRACE_ID_CHARS for ch in value)


@dataclass
class Span:
    """One named, timed interval inside a trace.

    ``started``/``ended`` are :func:`time.perf_counter` readings --
    meaningful only relative to the trace's own spans, which is all a
    span tree needs.  ``parent`` names the enclosing span (``None`` for
    the root).
    """

    name: str
    started: float
    ended: float
    parent: str | None = None
    #: Optional small JSON-ready annotations (docs count, chunk index).
    notes: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """The span's duration in seconds."""
        return max(0.0, self.ended - self.started)

    def to_dict(self) -> dict:
        """JSON-ready flat form (milliseconds, 3 decimal places)."""
        data = {
            "name": self.name,
            "ms": round(self.seconds * 1000.0, 3),
            "start_ms": round(self.started * 1000.0, 3),
        }
        if self.parent is not None:
            data["parent"] = self.parent
        if self.notes:
            data["notes"] = self.notes
        return data


class Trace:
    """The span tree of one request, safe to build from any thread.

    Spans are recorded either with the :meth:`span` context manager
    (times the ``with`` body) or with :meth:`add` (explicit
    start/end readings -- how the batcher back-fills queue-wait and
    per-request shares of a shared mining pass).  :meth:`finish` stamps
    the total duration; :meth:`tree` nests children under parents by
    name for the ``/stats?trace=1`` payload.

    Examples
    --------
    >>> trace = Trace("abc123")
    >>> with trace.span("parse"):
    ...     pass
    >>> trace.finish()
    >>> trace.tree()["trace_id"]
    'abc123'
    """

    def __init__(
        self,
        trace_id: str | None = None,
        parent_span: str | None = None,
    ) -> None:
        self.trace_id = trace_id or new_trace_id()
        #: Span name in the *upstream* process this trace hangs under
        #: (the router's ``X-Parent-Span`` header) -- ``None`` when this
        #: process is the edge.  Rendered in :meth:`tree` so assembly
        #: knows where to stitch.
        self.parent_span = parent_span
        #: Whether the id was adopted from the wire rather than minted.
        self.adopted = trace_id is not None
        #: Optional per-phase profiler sample counts, attached by the
        #: service to slow traces just before recording.
        self.profile: dict | None = None
        self.started = time.perf_counter()
        self.ended: float | None = None
        self._spans: list[Span] = []
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, parent: str | None = None, **notes):
        """Time the ``with`` body as a span called ``name``."""
        started = time.perf_counter()
        try:
            yield self
        finally:
            self.add(
                name, started, time.perf_counter(), parent=parent, **notes
            )

    def add(
        self,
        name: str,
        started: float,
        ended: float,
        parent: str | None = None,
        **notes,
    ) -> Span:
        """Record a span from explicit :func:`time.perf_counter` readings."""
        span = Span(
            name=name, started=started, ended=ended, parent=parent,
            notes=dict(notes),
        )
        with self._lock:
            self._spans.append(span)
        return span

    def finish(self) -> None:
        """Stamp the trace's end time (idempotent)."""
        if self.ended is None:
            self.ended = time.perf_counter()

    @property
    def total_seconds(self) -> float:
        """Total wall-clock of the trace (up to now if unfinished)."""
        end = self.ended if self.ended is not None else time.perf_counter()
        return max(0.0, end - self.started)

    def spans(self) -> list[Span]:
        """A snapshot list of the recorded spans (insertion order)."""
        with self._lock:
            return list(self._spans)

    def stage_seconds(self) -> dict[str, float]:
        """Total seconds per top-level span name (histogram feed).

        Only parentless spans count -- a ``kernel`` child must not be
        double-billed on top of its enclosing ``batch_mine``.
        """
        totals: dict[str, float] = {}
        for span in self.spans():
            if span.parent is None:
                totals[span.name] = totals.get(span.name, 0.0) + span.seconds
        return totals

    def tree(self) -> dict:
        """JSON-ready nested span tree, children ordered by start time.

        Span times are re-based so the trace starts at 0 ms.
        """
        spans = sorted(self.spans(), key=lambda s: s.started)
        nodes = []
        by_name: dict[str, dict] = {}
        for span in spans:
            node = {
                "name": span.name,
                "ms": round(span.seconds * 1000.0, 3),
                "start_ms": round(
                    (span.started - self.started) * 1000.0, 3
                ),
            }
            if span.notes:
                node["notes"] = span.notes
            parent = by_name.get(span.parent) if span.parent else None
            if parent is not None:
                parent.setdefault("children", []).append(node)
            else:
                nodes.append(node)
            # Last span wins the name slot: children attach to the most
            # recently opened span of that name, which matches nesting.
            by_name[span.name] = node
        tree = {
            "trace_id": self.trace_id,
            "total_ms": round(self.total_seconds * 1000.0, 3),
            "spans": nodes,
        }
        if self.parent_span is not None:
            tree["parent_span"] = self.parent_span
        if self.profile is not None:
            tree["profile"] = self.profile
        return tree

    def __repr__(self) -> str:
        return (
            f"Trace(trace_id={self.trace_id!r}, "
            f"spans={len(self.spans())}, "
            f"total_ms={self.total_seconds * 1000.0:.1f})"
        )


#: The request trace active in this execution context, if any.
_ACTIVE_TRACE: contextvars.ContextVar[Trace | None] = contextvars.ContextVar(
    "repro_active_trace", default=None
)


def active_trace() -> Trace | None:
    """The trace attached to the current context (``None`` outside one)."""
    return _ACTIVE_TRACE.get()


def set_active_trace(trace: Trace | None):
    """Attach ``trace`` to the current context; returns the reset token."""
    return _ACTIVE_TRACE.set(trace)


class TraceRecorder:
    """Bounded rings of finished traces: the recent and the slow.

    ``GET /stats?trace=1`` returns both ring snapshots.  ``recent``
    always holds the last ``capacity`` traces; ``slow`` holds the last
    ``capacity`` traces whose total exceeded ``slow_ms`` -- so one slow
    spike half an hour ago is still inspectable even after thousands of
    fast requests.

    Examples
    --------
    >>> recorder = TraceRecorder(capacity=2, slow_ms=0.0)
    >>> trace = Trace(); trace.finish(); recorder.record(trace)
    >>> len(recorder.snapshot()["recent"])
    1
    """

    def __init__(self, capacity: int = 16, slow_ms: float = 250.0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self.slow_ms = float(slow_ms)
        self._recent: list[dict] = []
        self._slow: list[dict] = []
        self._recorded = 0
        self._lock = threading.Lock()

    def record(self, trace: Trace) -> None:
        """Store one finished trace (rendered to its JSON tree)."""
        tree = trace.tree()
        with self._lock:
            self._recorded += 1
            self._recent.append(tree)
            if len(self._recent) > self.capacity:
                del self._recent[0]
            if tree["total_ms"] >= self.slow_ms:
                self._slow.append(tree)
                if len(self._slow) > self.capacity:
                    del self._slow[0]

    def get(self, trace_id: str) -> dict | None:
        """The most recent stored tree for ``trace_id`` (``None`` if gone).

        Serves ``GET /trace/<id>``.  The slow ring is searched first --
        it keeps traces long after the recent ring has cycled past them,
        which is exactly when someone comes asking about one.
        """
        with self._lock:
            for ring in (self._slow, self._recent):
                for tree in reversed(ring):
                    if tree.get("trace_id") == trace_id:
                        # Deep copy: the router mutates the returned
                        # tree while stitching shard spans into it.
                        return copy.deepcopy(tree)
        return None

    def snapshot(self) -> dict:
        """JSON-ready dump of both rings (the ``?trace=1`` payload)."""
        with self._lock:
            return {
                "recorded": self._recorded,
                "slow_ms_threshold": self.slow_ms,
                "recent": list(self._recent),
                "slow": list(self._slow),
            }

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"TraceRecorder(capacity={self.capacity}, "
                f"recorded={self._recorded}, slow={len(self._slow)})"
            )
