"""The HTTP front door that the mining service and the router share.

:class:`~repro.service.app.MiningService` and
:class:`~repro.router.app.RouterService` are both :class:`FrontDoor`
subclasses: the HTTP lifecycle lives here once, and each server brings
only its endpoint handlers and its own start/stop steps.

* **Binding and signals** -- :meth:`FrontDoor._bind` opens the socket
  (stream limit :data:`~repro.service.protocol.MAX_HEAD_BYTES`) and
  stamps the start time behind :attr:`FrontDoor.uptime_seconds`;
  :meth:`~FrontDoor.serve_forever` turns SIGTERM into the same graceful
  :meth:`stop` as cancellation, and :meth:`~FrontDoor.run` is the
  blocking form the CLI uses.
* **The keep-alive connection loop** -- one
  :func:`~repro.service.protocol.read_message` per request: a
  malformed message is answered 400 and a request whose head and
  declared body do not arrive within :data:`HEAD_TIMEOUT` seconds of
  its first byte (the connection's
  :class:`~repro.service.protocol.HeadClock`) 408, both with
  ``Connection: close``; a request arriving while the server drains is
  answered 503 with ``Connection: close``.  Idle keep-alive connections
  wait without a limit.
* **The endpoint table** -- ``path -> (method, handler)`` plus one
  prefix route (``/trace/<id>``); dispatch answers 404 for an unknown
  path and 405 for the wrong method.  Every handler is
  ``async handler(path, query, headers, body) -> bytes``.
* **Request counting** -- every answered exchange, the framing 400,
  the 408 and the draining 503 included, increments the server's
  ``endpoint``/``status`` counter.  Unknown paths, and messages refused
  before their path is known, count as ``other`` and ``/trace/<id>`` as
  ``/trace``, so a scanner cannot inflate label cardinality.
* **The drain** -- :meth:`FrontDoor._close_door` stops accepting and
  turns new requests into 503s; :meth:`FrontDoor._drain` waits, bounded
  by ``drain_timeout``, for in-flight exchanges to flush their
  responses, then drops every connection.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import time
from typing import Awaitable, Callable

from repro.obs.metrics import Counter
from repro.service.protocol import (
    MAX_HEAD_BYTES,
    HeadClock,
    HeadTimeout,
    ProtocolError,
    read_message,
    response_bytes,
)

__all__ = ["HEAD_TIMEOUT", "FrontDoor", "Handler"]

#: Seconds a request may take from its first byte to the end of its
#: declared body; a slower one is answered 408 and its connection closed.
HEAD_TIMEOUT = 10.0

#: ``async handler(path, query, headers, body) -> response bytes``.
Handler = Callable[[str, str, dict, bytes], Awaitable[bytes]]


class FrontDoor:
    """One HTTP/1.1 server: lifecycle, connection loop, dispatch, counts.

    A subclass defines ``async start(host, port)``, which calls
    :meth:`_bind` among its own steps and returns the bound address,
    and ``async stop()``, which calls :meth:`_close_door` and then
    :meth:`_drain`.

    Parameters
    ----------
    routes:
        The endpoint table, ``path -> (method, handler)``.
    prefix_route:
        ``(prefix, method, handler)`` for the one path family routed by
        prefix (``"/trace/"``); counted under the prefix without its
        trailing slash.
    requests:
        The counter that gets one increment per answered exchange,
        labelled ``endpoint`` and ``status``.
    role:
        What the server calls itself in its draining 503
        (``"<role> is draining for shutdown"``).
    drain_timeout:
        Seconds :meth:`_drain` waits for in-flight exchanges.
    """

    #: The port :meth:`serve_forever` and :meth:`run` bind by default.
    default_port = 8765

    def __init__(
        self,
        *,
        routes: dict[str, tuple[str, Handler]],
        prefix_route: tuple[str, str, Handler],
        requests: Counter,
        role: str,
        drain_timeout: float,
    ) -> None:
        if drain_timeout < 0:
            raise ValueError(
                f"drain_timeout must be >= 0, got {drain_timeout!r}"
            )
        self.drain_timeout = drain_timeout
        self._routes = routes
        self._prefix, self._prefix_method, self._prefix_handler = prefix_route
        self._prefix_label = self._prefix.rstrip("/")
        self._labels = frozenset(routes) | {self._prefix_label}
        self._requests = requests
        self._draining_refusal = f"{role} is draining for shutdown"
        self._server: asyncio.base_events.Server | None = None
        self._started_at: float | None = None
        self.address: tuple[str, int] | None = None
        self._connections: set[asyncio.Task] = set()
        self._active_exchanges = 0
        self._draining = False

    @property
    def uptime_seconds(self) -> float:
        """Seconds since the socket was bound (0 before :meth:`start`)."""
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    async def _bind(self, host: str, port: int) -> tuple[str, int]:
        """Open the listening socket; ``port=0`` binds an ephemeral port.

        Returns (and stores on :attr:`address`) the bound pair.
        """
        self._server = await asyncio.start_server(
            self._serve_connection, host, port, limit=MAX_HEAD_BYTES
        )
        bound = self._server.sockets[0].getsockname()
        self.address = (bound[0], bound[1])
        self._started_at = time.monotonic()
        return self.address

    async def _close_door(self) -> None:
        """Stop accepting connections; new requests on open ones get 503."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _drain(self) -> None:
        """Let in-flight exchanges flush (bounded), then drop connections.

        Bounded by ``drain_timeout`` in case a peer stopped reading;
        the idle keep-alive connections parked between requests are
        cancelled afterwards.
        """
        deadline = time.monotonic() + self.drain_timeout
        while self._active_exchanges and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    async def serve_forever(
        self, host: str = "127.0.0.1", port: int | None = None, on_bound=None
    ) -> None:
        """Start and serve until cancelled; shuts down gracefully.

        ``on_bound``, when given, is called with the actual ``(host,
        port)`` pair once the socket is bound -- the only way to learn
        the real port of an ephemeral (``port=0``) bind.  ``port``
        defaults to :attr:`default_port`.

        SIGTERM (what ``docker stop`` / systemd send) triggers the same
        graceful :meth:`stop` as cancellation: accepted requests are
        answered before the process exits.  SIGINT is left to the
        asyncio runner (Ctrl-C in a foreground process).
        """
        bound = await self.start(
            host, self.default_port if port is None else port
        )
        if on_bound is not None:
            on_bound(bound)
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        sigterm_installed = False
        try:
            loop.add_signal_handler(signal.SIGTERM, task.cancel)
            sigterm_installed = True
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # platforms/loops without signal-handler support
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            if sigterm_installed:
                with contextlib.suppress(Exception):
                    loop.remove_signal_handler(signal.SIGTERM)
            await self.stop()

    def run(
        self, host: str = "127.0.0.1", port: int | None = None, on_bound=None
    ) -> None:
        """Blocking form of :meth:`serve_forever` (``repro-mss serve`` /
        ``route``): serves until interrupted, then drains."""
        try:
            asyncio.run(self.serve_forever(host, port, on_bound=on_bound))
        except KeyboardInterrupt:
            pass

    # ------------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        """Serve one keep-alive client connection until it ends.

        Connections register themselves so :meth:`_drain` can first
        wait for busy exchanges to flush their responses, then cancel
        the idle ones parked between keep-alive requests.
        """
        task = asyncio.current_task()
        self._connections.add(task)
        head_clock = HeadClock(HEAD_TIMEOUT)
        try:
            while True:
                try:
                    message = await read_message(
                        reader, writer, head_clock=head_clock
                    )
                except ProtocolError as exc:
                    # HeadTimeout is the 408 kind of ProtocolError.
                    started = time.perf_counter()
                    status = 408 if isinstance(exc, HeadTimeout) else 400
                    response = response_bytes(
                        status, {"error": str(exc)}, keep_alive=False
                    )
                    self._count("", response, started)
                    writer.write(response)
                    await writer.drain()
                    break
                if message is None:
                    break
                method, target, headers, body = message
                path, _, query = target.partition("?")
                started = time.perf_counter()
                if self._draining:
                    # A parked keep-alive connection woke up mid-drain:
                    # refuse with Connection: close so the client (or a
                    # load balancer) moves on to another replica.
                    response = response_bytes(
                        503,
                        {"error": self._draining_refusal},
                        keep_alive=False,
                    )
                    self._count(path, response, started)
                    writer.write(response)
                    await writer.drain()
                    break
                self._active_exchanges += 1
                try:
                    response = await self._dispatch(
                        method, path, query, headers, body
                    )
                    self._count(path, response, started)
                    writer.write(response)
                    await writer.drain()
                finally:
                    self._active_exchanges -= 1
                if headers.get("connection", "").lower() == "close":
                    break
        except ConnectionError:
            pass  # client went away mid-exchange; nothing to answer
        except asyncio.CancelledError:
            pass  # shutdown dropped this idle connection
        finally:
            head_clock.close()
            self._connections.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(
        self, method: str, path: str, query: str, headers: dict, body: bytes
    ) -> bytes:
        """Method-checked dispatch over the endpoint table."""
        route = self._routes.get(path)
        if route is not None:
            allowed, handler = route
        elif path.startswith(self._prefix):
            allowed, handler = self._prefix_method, self._prefix_handler
        else:
            return response_bytes(404, {"error": f"no such endpoint {path!r}"})
        if method != allowed:
            return response_bytes(405, {"error": f"use {allowed}"})
        return await handler(path, query, headers, body)

    def _count(self, path: str, response: bytes, started: float) -> None:
        """Count one answered exchange under its clamped endpoint label.

        The status code is read back off the serialized status line
        (``HTTP/1.1 NNN ...``), so every path through :meth:`_dispatch`
        is counted alike.
        """
        if path.startswith(self._prefix):
            endpoint = self._prefix_label
        elif path in self._labels:
            endpoint = path
        else:
            endpoint = "other"
        status = response[9:12].decode("latin-1")
        self._requests.labels(endpoint=endpoint, status=status).inc()
        self._observe(endpoint, status, started)

    def _observe(self, endpoint: str, status: str, started: float) -> None:
        """Per-server extra accounting of one counted exchange
        (``started`` is its :func:`time.perf_counter` start)."""
