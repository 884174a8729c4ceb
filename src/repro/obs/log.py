"""Structured JSON-lines logging for the serving stack.

Every interesting event in the service -- a request served, a native
backend falling back to numpy, a corrupt calibration entry on disk --
is emitted through one of these loggers as a flat dict of fields, in
one of two formats:

* ``json`` -- one JSON object per line (``{"ts": ..., "level": ...,
  "logger": ..., "event": ..., **fields}``), grep- and ``jq``-able,
  what ``repro-mss serve --log-format json`` selects for production;
* ``text`` -- the same fields as ``key=value`` pairs after a readable
  prefix, the default for a foreground terminal.

Deliberately *not* built on :mod:`logging`: the stdlib module's global
handler tree, level inheritance and lazy ``%``-formatting solve
problems this stack does not have, and its mutable process-global state
is exactly what the metrics registry avoids.  This is ~100 lines with
one global config, one lock around the stream, and no handler graph.

Default level is ``warning``: a library user who never calls
:func:`configure` sees crash/corruption warnings on stderr and nothing
else.  ``repro-mss serve`` configures ``info`` so the per-request
access log is emitted.
"""

from __future__ import annotations

import json
import sys
import threading
import time

__all__ = ["StructuredLogger", "configure", "get_logger"]

#: Severity order for level filtering.
_LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


class _Config:
    """The process-global logging configuration (format, level, stream)."""

    def __init__(self) -> None:
        self.format = "text"
        self.level = "warning"
        self.stream = None  # None -> sys.stderr at emit time
        self.lock = threading.Lock()


_CONFIG = _Config()


def configure(
    *,
    format: str | None = None,
    level: str | None = None,
    stream=None,
) -> None:
    """Set the global log format (``text``/``json``), level, and stream.

    Arguments left ``None`` keep their current value.  ``stream=None``
    (the initial state) writes to whatever ``sys.stderr`` is at emit
    time, so pytest's capture and shell redirection both work.

    >>> configure(level="error")
    >>> configure(level="warning")  # restore the default
    """
    if format is not None:
        if format not in ("text", "json"):
            raise ValueError(f"format must be 'text' or 'json', got {format!r}")
        _CONFIG.format = format
    if level is not None:
        if level not in _LEVELS:
            raise ValueError(
                f"level must be one of {sorted(_LEVELS)}, got {level!r}"
            )
        _CONFIG.level = level
    if stream is not None:
        _CONFIG.stream = stream


_LOGGERS: dict[str, "StructuredLogger"] = {}
_LOGGERS_LOCK = threading.Lock()


def get_logger(name: str) -> "StructuredLogger":
    """The structured logger called ``name`` (cached per name).

    >>> get_logger("repro.service").name
    'repro.service'
    """
    with _LOGGERS_LOCK:
        logger = _LOGGERS.get(name)
        if logger is None:
            logger = _LOGGERS[name] = StructuredLogger(name)
        return logger


class StructuredLogger:
    """Emit structured events at debug/info/warning/error levels.

    An event is a short machine-readable name (``"access"``,
    ``"native_fallback"``, ``"disk_corrupt"``) plus keyword fields; the
    global :func:`configure` state decides format, level threshold and
    destination.

    Examples
    --------
    >>> import io
    >>> buffer = io.StringIO()
    >>> configure(format="json", level="info", stream=buffer)
    >>> get_logger("demo").info("access", status=200)
    >>> json.loads(buffer.getvalue())["event"]
    'access'
    >>> configure(format="text", level="warning", stream=sys.stderr)
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def debug(self, event: str, **fields) -> None:
        """Emit ``event`` at debug level."""
        self._emit("debug", event, fields)

    def info(self, event: str, **fields) -> None:
        """Emit ``event`` at info level."""
        self._emit("info", event, fields)

    def warning(self, event: str, **fields) -> None:
        """Emit ``event`` at warning level."""
        self._emit("warning", event, fields)

    def error(self, event: str, **fields) -> None:
        """Emit ``event`` at error level."""
        self._emit("error", event, fields)

    def _emit(self, level: str, event: str, fields: dict) -> None:
        if _LEVELS[level] < _LEVELS[_CONFIG.level]:
            return
        record = {
            "ts": round(time.time(), 6),
            "level": level,
            "logger": self.name,
            "event": event,
            **fields,
        }
        if _CONFIG.format == "json":
            line = json.dumps(record, default=str, separators=(",", ":"))
        else:
            pairs = " ".join(
                f"{key}={value}" for key, value in fields.items()
            )
            line = f"[{level:7s}] {self.name} {event}" + (
                f" {pairs}" if pairs else ""
            )
        stream = _CONFIG.stream if _CONFIG.stream is not None else sys.stderr
        with _CONFIG.lock:
            try:
                stream.write(line + "\n")
                stream.flush()
            except (OSError, ValueError):
                pass  # a closed stderr must never fail a request

    def __repr__(self) -> str:
        return f"StructuredLogger(name={self.name!r})"
