"""Wire protocol of the mining service: JSON over a small HTTP/1.1 subset.

Two layers, both stdlib-only:

* **Request parsing** -- :func:`parse_mine_request` turns a decoded
  JSON body into a validated :class:`MineRequest` (documents + a
  :class:`~repro.engine.jobs.JobSpec` + a
  :class:`~repro.core.model.BernoulliModel`).  Everything user-supplied
  is checked here, up front, so a malformed request is rejected with a
  400 *before* it can poison a micro-batch shared with other clients --
  including symbols outside the model's alphabet, which would otherwise
  surface as a mid-batch ``KeyError`` in a worker.
* **HTTP framing** -- :func:`read_message` / :func:`response_bytes`
  implement exactly the slice of HTTP/1.1 the service and the router
  need (``Content-Length`` framed bodies, keep-alive, no chunked
  encoding) over raw :mod:`asyncio` streams, per the
  no-new-runtime-deps rule.  One reader, one set of limits, for the
  requests both servers take and the shard answers the router reads.
  Stdlib clients (``http.client``, hence :class:`~repro.service.client.
  ServiceClient`) speak it natively.

The request JSON schema (all spec fields optional)::

    {"text": "...",            # or "texts": ["...", ...]
     "ids": ["doc-a", ...],    # optional, defaults to doc-0000...
     "problem": "mss" | "top" | "threshold" | "minlength",
     "t": 10, "threshold": 0.0, "min_length": 1, "limit": 100,
     "backend": "native" | "numpy" | "python",
     "alphabet": "ab",         # optional, else the service's model
     "probs": [0.5, 0.5],      # optional, else uniform over alphabet
     "correction": "bh" | "bonferroni" | "none",   # optional
     "alpha": 0.05,                                # optional
     "timeout_ms": 2000}       # optional end-to-end deadline
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from dataclasses import dataclass, field

from repro.core.model import BernoulliModel
from repro.engine.corrections import CORRECTIONS
from repro.engine.jobs import JobSpec, MiningJob

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEAD_BYTES",
    "HeadClock",
    "HeadTimeout",
    "MineRequest",
    "ProtocolError",
    "parse_mine_request",
    "read_message",
    "response_bytes",
    "text_response_bytes",
]

#: Upper bound on a message body; a larger declared body is a 400.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Upper bound on a message head (start line plus headers): the stream
#: limit both servers and the router's upstream connections use.
MAX_HEAD_BYTES = 64 * 1024

#: Cancellation message of :class:`HeadClock`'s timer.
_HEAD_TIMED_OUT = "request head timed out"

#: JobSpec fields a request may set directly.
_SPEC_FIELDS = ("problem", "t", "threshold", "min_length", "limit", "backend")

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(ValueError):
    """A malformed or unserviceable request (maps to HTTP 400)."""


class HeadTimeout(ProtocolError):
    """A request that started but whose head or body did not finish in
    time (HTTP 408)."""


class HeadClock:
    """The time limit of one connection's requests, head and body.

    :func:`read_message` starts the clock at a head's first byte and
    stops it once the declared body is in; a message still open
    ``timeout`` seconds after it started has its reading task cancelled,
    which :func:`read_message` turns into :class:`HeadTimeout`.  At most
    one timer per connection is pending: it is armed when a message
    starts and none is, and when it fires it ends the message it was
    armed for if that message is still open, re-arms for a later open
    one, or lapses.  So a message costs a clock read, where a timer armed
    and cancelled for every head measured about 20 us of event-loop CPU
    per request (2 vCPUs).
    :meth:`close` the clock with its connection.
    """

    def __init__(self, timeout: float) -> None:
        self.timeout = timeout
        self._started: float | None = None
        self._timer: asyncio.TimerHandle | None = None

    def start(self) -> None:
        """A message has started (its first byte is in)."""
        loop = asyncio.get_running_loop()
        self._started = loop.time()
        if self._timer is None:
            self._arm(loop, asyncio.current_task())

    def stop(self) -> None:
        """The message has ended (read whole, or failed)."""
        self._started = None

    def close(self) -> None:
        """Drop the pending timer, if any."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _arm(self, loop, task) -> None:
        self._timer = loop.call_at(
            self._started + self.timeout, self._fire, loop, task, self._started
        )

    def _fire(self, loop, task, started: float) -> None:
        self._timer = None
        if self._started == started:
            task.cancel(_HEAD_TIMED_OUT)
        elif self._started is not None:
            self._arm(loop, task)


@dataclass(frozen=True)
class MineRequest:
    """One validated mine request: documents plus mining parameters.

    ``spec`` and ``model`` are both hashable, so ``(spec, model)`` is
    the micro-batcher's coalescing key -- requests agreeing on both can
    share one kernel ``mine_batch`` call.  ``correction``/``alpha`` stay
    per-request (``None`` defers to the engine defaults): the
    multiple-testing correction is applied across *this request's*
    documents only, never across a shared batch.
    """

    ids: tuple[str, ...]
    texts: tuple[str, ...] = field(repr=False)
    spec: JobSpec
    model: BernoulliModel
    correction: str | None = None
    alpha: float | None = None
    #: End-to-end deadline in milliseconds (``None`` = no limit).  The
    #: service stamps a monotonic :class:`~repro.engine.deadline.Deadline`
    #: from it at admission; expired requests are answered 504.
    timeout_ms: int | None = None

    @property
    def docs(self) -> int:
        """How many documents the request carries."""
        return len(self.texts)

    @property
    def tenant_key(self) -> str:
        """Short stable hash of the request's null model.

        Requests sharing an (alphabet, probabilities) pair share a
        tenant key -- the per-tenant accounting handle the access log
        records and the batcher's per-tenant queue quota
        (``tenant_fair_share``) keys on.
        Deliberately *not* derived from any client identity: the model
        is what distinguishes tenants of a shared mining service.
        """
        payload = json.dumps(
            [
                [str(symbol) for symbol in self.model.alphabet],
                [float(p) for p in self.model.probabilities],
            ],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    @property
    def spec_hash(self) -> str:
        """Short stable hash of the job spec (problem + parameters),
        for correlating access-log lines with request shapes."""
        return hashlib.sha256(
            repr(self.spec).encode("utf-8")
        ).hexdigest()[:12]

    def jobs(self) -> list[MiningJob]:
        """The request as engine jobs, in document order."""
        return [
            MiningJob(doc_id, text, self.spec, self.model)
            for doc_id, text in zip(self.ids, self.texts)
        ]


def _parse_texts(payload: dict) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Extract and validate (ids, texts) from a request payload."""
    has_text = "text" in payload
    has_texts = "texts" in payload
    if has_text == has_texts:
        raise ProtocolError("provide exactly one of 'text' or 'texts'")
    if has_text:
        texts = [payload["text"]]
    else:
        texts = payload["texts"]
        if not isinstance(texts, list):
            raise ProtocolError("'texts' must be a list of strings")
    if not texts:
        raise ProtocolError("'texts' is empty; nothing to mine")
    for position, text in enumerate(texts):
        if not isinstance(text, str):
            raise ProtocolError(
                f"document {position} is not a string ({type(text).__name__})"
            )
        if not text:
            raise ProtocolError(f"document {position} is empty")
    ids = payload.get("ids")
    if ids is None:
        ids = [f"doc-{i:04d}" for i in range(len(texts))]
    else:
        if not isinstance(ids, list) or not all(
            isinstance(doc_id, str) for doc_id in ids
        ):
            raise ProtocolError("'ids' must be a list of strings")
        if len(ids) != len(texts):
            raise ProtocolError(
                f"got {len(ids)} ids for {len(texts)} documents"
            )
    return tuple(ids), tuple(texts)


def _parse_model(
    payload: dict, texts: tuple[str, ...], default_model: BernoulliModel | None
) -> BernoulliModel:
    """Build the request's null model (explicit, or the service default)."""
    alphabet = payload.get("alphabet")
    probs = payload.get("probs")
    if alphabet is None:
        if probs is not None:
            raise ProtocolError("'probs' requires 'alphabet'")
        if default_model is None:
            raise ProtocolError(
                "the service has no default model; pass 'alphabet'"
            )
        model = default_model
    else:
        if isinstance(alphabet, list):
            symbols = alphabet
        elif isinstance(alphabet, str):
            symbols = list(alphabet)
        else:
            raise ProtocolError("'alphabet' must be a string or list")
        try:
            if probs is None:
                model = BernoulliModel.uniform(symbols)
            else:
                if not isinstance(probs, list):
                    raise ProtocolError("'probs' must be a list of numbers")
                model = BernoulliModel(symbols, probs)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad model: {exc}") from None
    allowed = set(model.alphabet)
    for position, text in enumerate(texts):
        # Set membership instead of model.encode(): same 400, without
        # allocating a throwaway int64 array per document that the
        # engine would only re-encode at pack time anyway.
        extra = set(text) - allowed
        if extra:
            bad = next(symbol for symbol in text if symbol in extra)
            raise ProtocolError(
                f"document {position}: symbol {bad!r} is not in the "
                f"alphabet {model.alphabet!r}"
            )
    return model


def parse_mine_request(
    payload: object,
    default_model: BernoulliModel | None = None,
    *,
    default_backend: str | None = None,
    default_timeout_ms: int | None = None,
) -> MineRequest:
    """Validate a decoded JSON body into a :class:`MineRequest`.

    Raises :class:`ProtocolError` (an HTTP 400) on anything malformed:
    wrong types, empty documents, unknown spec parameters' values,
    symbols outside the alphabet, probabilities that do not sum to 1,
    non-positive ``timeout_ms``.  ``default_model`` is the
    service-level model used when the request does not bring its own
    ``alphabet``; ``default_backend`` is the service-level kernel
    backend applied when the request does not pick one (``repro-mss
    serve --backend``); ``default_timeout_ms`` likewise backstops
    requests that carry no ``timeout_ms`` (``serve
    --default-timeout-ms``).
    """
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    ids, texts = _parse_texts(payload)
    model = _parse_model(payload, texts, default_model)
    spec_kwargs = {
        name: payload[name] for name in _SPEC_FIELDS if payload.get(name) is not None
    }
    if default_backend is not None:
        spec_kwargs.setdefault("backend", default_backend)
    try:
        spec = JobSpec(**spec_kwargs)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad job spec: {exc}") from None
    correction = payload.get("correction")
    if correction is not None and correction not in CORRECTIONS:
        raise ProtocolError(
            f"unknown correction {correction!r}; expected one of {CORRECTIONS}"
        )
    alpha = payload.get("alpha")
    if alpha is not None:
        if not isinstance(alpha, (int, float)) or not 0.0 < alpha < 1.0:
            raise ProtocolError(f"alpha must be in (0, 1), got {alpha!r}")
        alpha = float(alpha)
    timeout_ms = payload.get("timeout_ms")
    if timeout_ms is None:
        timeout_ms = default_timeout_ms
    if timeout_ms is not None:
        # bool is an int subclass; `"timeout_ms": true` is still a 400.
        if (
            not isinstance(timeout_ms, int)
            or isinstance(timeout_ms, bool)
            or timeout_ms <= 0
        ):
            raise ProtocolError(
                f"timeout_ms must be a positive integer, got {timeout_ms!r}"
            )
    return MineRequest(
        ids=ids, texts=texts, spec=spec, model=model,
        correction=correction, alpha=alpha, timeout_ms=timeout_ms,
    )


async def read_message(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter | None = None,
    *,
    response: bool = False,
    head_clock: HeadClock | None = None,
) -> tuple[str | int, str, dict[str, str], bytes] | None:
    """Read one HTTP/1.1 message: a request, or a response with ``response=True``.

    Returns ``(method, target, headers, body)`` for a request and
    ``(status, reason, headers, body)`` for a response, header names
    lower-cased.  Returns ``None`` when the stream ends before the
    message's first byte: a client closing an idle keep-alive
    connection, or a shard closing a pooled one.  Raises
    :class:`ProtocolError` on anything the subset does not speak: a
    truncated or over-long head (over the stream limit,
    :data:`MAX_HEAD_BYTES` on both servers' sockets), a malformed start
    line, chunked encoding, a bad, conflicting or over-
    :data:`MAX_BODY_BYTES` ``Content-Length``, a truncated body.  It
    never reads past the declared body.

    With a ``head_clock`` (the servers' request loop) the first byte is
    awaited without a limit and the rest of the message, head and
    declared body, within the clock's timeout: :class:`HeadTimeout` when
    either stalls.  When ``writer`` is
    given, an ``Expect: 100-continue`` request is answered with the
    interim ``100 Continue`` before its body is read -- curl sends it
    for bodies over ~1 KB and would otherwise stall for its
    expect-timeout on every such request.
    """
    kind = "response" if response else "request"
    first = b""
    if head_clock is not None:
        # Idle keep-alive connections wait here, with no clock running.
        first = await reader.read(1)
        if not first:
            return None
        head_clock.start()
    part = "head"
    try:
        head = first + await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        if response:
            parts = lines[0].split(None, 2)
            if (
                len(parts) < 2
                or not parts[0].startswith("HTTP/1.")
                or len(parts[1]) != 3
                or not parts[1].isdecimal()
            ):
                raise ProtocolError(f"malformed status line {lines[0]!r}")
            start = (int(parts[1]), parts[2] if len(parts) == 3 else "")
        else:
            parts = lines[0].split()
            if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
                raise ProtocolError(f"malformed request line {lines[0]!r}")
            start = (parts[0].upper(), parts[1])
        # The head ends at its first blank line, so lines[-2:] are the two
        # empty strings after it and every line between is a header.
        headers: dict[str, str] = {}
        for line in lines[1:-2]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if len(headers) < len(lines) - 3:
            _refuse_conflicting_framing(lines[1:-2])
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise ProtocolError("chunked transfer encoding is not supported")
        length = headers.get("content-length", "0")
        try:
            length = int(length)
        except ValueError:
            raise ProtocolError(f"bad Content-Length {length!r}") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise ProtocolError(f"Content-Length {length} out of range")
        if not length:
            return (*start, headers, b"")
        part = "body"
        if (
            writer is not None
            and "100-continue" in headers.get("expect", "").lower()
        ):
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            await writer.drain()
        return (*start, headers, await reader.readexactly(length))
    except asyncio.IncompleteReadError as exc:
        if part == "head" and not first and not exc.partial:
            return None
        raise ProtocolError(f"truncated {kind} {part}") from None
    except asyncio.LimitOverrunError:
        raise ProtocolError(f"{kind} head too large") from None
    except asyncio.CancelledError as exc:
        if exc.args != (_HEAD_TIMED_OUT,):
            raise
        asyncio.current_task().uncancel()
        raise HeadTimeout(
            f"request {part} not complete within {head_clock.timeout:g}s"
        ) from None
    finally:
        if head_clock is not None:
            head_clock.stop()


def _refuse_conflicting_framing(header_lines: list[str]) -> None:
    """Raise :class:`ProtocolError` when a repeated framing header
    disagrees with itself: a message framed two ways is refused, not
    guessed at."""
    for framing in ("content-length", "transfer-encoding"):
        values = set()
        for line in header_lines:
            name, _, value = line.partition(":")
            if name.strip().lower() == framing:
                values.add(value.strip())
        if len(values) > 1:
            raise ProtocolError(f"conflicting {framing} headers")


def response_bytes(
    status: int,
    payload: dict,
    *,
    extra_headers: tuple[tuple[str, str], ...] = (),
    keep_alive: bool = True,
) -> bytes:
    """Serialise one JSON response with correct framing.

    >>> response_bytes(200, {"ok": True}).startswith(b"HTTP/1.1 200 OK\\r\\n")
    True
    """
    body = json.dumps(payload).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def text_response_bytes(
    status: int,
    text: str,
    *,
    content_type: str = "text/plain; version=0.0.4; charset=utf-8",
    keep_alive: bool = True,
) -> bytes:
    """Serialise one plain-text response (the ``GET /metrics`` body).

    The default content type is the Prometheus text exposition format's.

    >>> text_response_bytes(200, "x 1\\n").endswith(b"x 1\\n")
    True
    """
    body = text.encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
