"""The shard router: one front door over N mining-service processes.

:class:`RouterService` is a stdlib-asyncio reverse proxy that turns
"1.8x on one core" (``BENCH_service.json``) into horizontal scale: N
independent ``repro-mss serve`` processes behind one address, each
with its own mining threads, micro-batcher and calibration cache.  The
paper's per-document mining is embarrassingly shardable -- documents
never interact -- so the only thing a router must preserve is **batch
affinity**: requests that the micro-batcher could coalesce must land
on the same shard.  ``POST /mine`` is therefore placed by consistent
hashing (:mod:`repro.router.ring`) on the request's model + job-spec
fields, and everything else follows from shards being plain
:class:`~repro.service.app.MiningService` instances:

* **Pass-through bodies.**  The router never re-serialises a shard's
  ``/mine`` answer: status line, ``X-Trace-Id``, ``Retry-After`` and
  the body bytes are forwarded verbatim (plus an ``X-Shard`` header
  naming the origin), so routed responses are bit-identical to
  single-service ones -- the property the multi-shard identity tests
  pin.
* **Health ejection.**  A background loop polls every shard's
  ``/healthz``; consecutive connection failures (a dead shard) or any
  status other than ``ok`` eject the shard from the ring, re-routing its
  hash arcs to the survivors.  (A shard whose enforced SLO fast-burns
  still reports ``ok``: it answers, so it stays in rotation.)  Ejected shards
  keep being polled and rejoin the moment they report ``ok`` again.
* **Bounded retry.**  Mining is idempotent, so a connection failure or
  a 503 (shard draining) is retried **once**, on the key's next
  preferred shard, and only while the request's ``timeout_ms`` budget
  has time left; deadline expiry anywhere becomes the same 504 a shard
  would send.  429s are never retried -- backpressure is an answer.
* **Aggregated observability.**  ``GET /metrics`` merges every shard's
  Prometheus exposition, tagging each sample with a ``shard`` label,
  and appends the router's own families; ``GET /stats`` nests each
  shard's stats document under its shard name.
* **Ordered drain.**  SIGTERM (or :meth:`stop`) stops accepting, then
  drains shard-by-shard: each *owned* shard is removed from the ring,
  SIGTERMed, and waited on -- the same graceful drain a single service
  performs, N times, with no shard receiving new work while a
  predecessor drains.

Run it with ``repro-mss route`` (see :mod:`repro.cli`): ``--shards N``
spawns an owned fleet via :class:`~repro.router.manager.ShardProcess`;
``--upstream host:port,...`` fronts externally managed services.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time

from repro.engine.deadline import Deadline
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracesink import TraceSampler, TraceSink
from repro.obs.tracing import Trace, TraceRecorder, valid_trace_id
from repro.router.manager import ShardProcess
from repro.router.ring import DEFAULT_REPLICAS, HashRing, routing_key
from repro.service.frontdoor import FrontDoor
from repro.service.protocol import (
    _REASONS,
    MAX_HEAD_BYTES,
    read_message,
    response_bytes,
    text_response_bytes,
)

__all__ = ["RouterService", "ShardState"]

_LOG = get_logger("repro.router")

#: Upstream hop-by-hop headers never forwarded to the client; the
#: router speaks keep-alive to its own clients regardless of how the
#: upstream exchange ended, and re-frames Content-Length itself.
_HOP_HEADERS = frozenset({"connection", "content-length"})


class ShardState:
    """Everything the router tracks about one shard.

    ``address`` follows the owned :class:`ShardProcess` when there is
    one (a restarted shard re-binds an ephemeral port; the logical
    shard keeps its name and therefore its ring placement), and is
    static in ``--upstream`` mode.
    """

    def __init__(
        self,
        name: str,
        address: tuple[str, int] | None = None,
        process: ShardProcess | None = None,
    ) -> None:
        if address is None and process is None:
            raise ValueError(f"shard {name!r} needs an address or a process")
        self.name = name
        self._address = address
        self.process = process
        #: Whether the shard currently owns ring arcs.
        self.healthy = True
        #: Last observed health: unknown / ok / degraded / down.
        self.status = "unknown"
        #: Human detail for /healthz (degraded reason, connect error).
        self.detail = ""
        self.consecutive_failures = 0

    @property
    def address(self) -> tuple[str, int]:
        """Where the shard listens right now (follows restarts)."""
        if self.process is not None and self.process.address is not None:
            return self.process.address
        assert self._address is not None
        return self._address

    @address.setter
    def address(self, value: tuple[str, int]) -> None:
        self._address = value

    def summary(self) -> dict:
        """JSON-ready view for the router's ``/healthz`` and ``/stats``."""
        return {
            "address": f"{self.address[0]}:{self.address[1]}",
            "healthy": self.healthy,
            "status": self.status,
            "detail": self.detail,
            "consecutive_failures": self.consecutive_failures,
            "owned": self.process is not None,
        }

    def __repr__(self) -> str:
        return (
            f"ShardState(name={self.name!r}, address={self.address!r}, "
            f"status={self.status!r})"
        )


class RouterService(FrontDoor):
    """Route mining traffic across N shards with affinity and failover.

    Its HTTP lifecycle is the shared
    :class:`~repro.service.frontdoor.FrontDoor`, as the service's is.

    Parameters
    ----------
    upstreams:
        ``(host, port)`` pairs of externally managed shards.
    processes:
        Owned, already-started :class:`ShardProcess` instances
        (mutually additive with ``upstreams``; the CLI uses exactly one
        of the two).  Owned shards are SIGTERMed shard-by-shard on
        :meth:`stop`.
    replicas:
        Virtual nodes per shard on the ring.
    health_interval:
        Seconds between ``/healthz`` sweeps.
    fail_after:
        Consecutive probe failures before a shard is ejected as dead.
        (A ``degraded`` health report ejects immediately -- the shard
        said so itself.)
    probe_timeout:
        Per-probe time budget; defaults to ``health_interval`` clamped
        into [0.25s, 2s].
    drain_timeout:
        Bound on waiting for in-flight client exchanges at stop, and
        per-shard graceful-drain bound during the ordered shutdown.
    trace_sample:
        Head-based sampling rate for router-side traces (``route
        --trace-sample``); deterministic on the trace id, so a routed
        request is kept on the router and on its shard together.
        Errors and slow requests are always kept.
    trace_log:
        Optional JSON-lines sink path for kept router traces (``route
        --trace-log``).
    """

    default_port = 8799

    def __init__(
        self,
        upstreams: list[tuple[str, int]] | None = None,
        *,
        processes: list[ShardProcess] | None = None,
        replicas: int = DEFAULT_REPLICAS,
        health_interval: float = 0.5,
        fail_after: int = 2,
        probe_timeout: float | None = None,
        drain_timeout: float = 10.0,
        trace_sample: float = 1.0,
        trace_log: str | None = None,
    ) -> None:
        if health_interval <= 0:
            raise ValueError(
                f"health_interval must be > 0, got {health_interval!r}"
            )
        if fail_after < 1:
            raise ValueError(f"fail_after must be >= 1, got {fail_after!r}")
        self.shards: dict[str, ShardState] = {}
        for index, address in enumerate(upstreams or []):
            name = f"shard-{index}"
            self.shards[name] = ShardState(name, address=address)
        for process in processes or []:
            if process.name in self.shards:
                raise ValueError(f"duplicate shard name {process.name!r}")
            self.shards[process.name] = ShardState(
                process.name, process=process
            )
        if not self.shards:
            raise ValueError("router needs at least one upstream or process")
        self.health_interval = health_interval
        self.fail_after = fail_after
        self.probe_timeout = (
            probe_timeout
            if probe_timeout is not None
            else min(2.0, max(0.25, health_interval))
        )
        # Optimistic start: every shard is routable until a probe says
        # otherwise, so the first requests never wait a full sweep.
        self.ring = HashRing(self.shards, replicas=replicas)
        # Router-side traces: every proxied /mine gets a Trace whose id
        # travels to the shard as X-Trace-Id, so /trace/<id> here can
        # stitch the proxy spans on top of the shard's own tree.
        self.traces = TraceRecorder()
        self.sampler = TraceSampler(trace_sample)
        self.trace_sink = TraceSink(trace_log) if trace_log else None
        self.metrics = MetricsRegistry()
        http_requests = self.metrics.counter(
            "repro_router_requests_total",
            "Requests served by the router, by endpoint and status code.",
            labelnames=("endpoint", "status"),
        )
        self._proxied = self.metrics.counter(
            "repro_router_proxied_total",
            "Mine exchanges forwarded upstream, by shard and status code.",
            labelnames=("shard", "status"),
        )
        self._retries = self.metrics.counter(
            "repro_router_retries_total",
            "Mine requests retried on a failover shard after a "
            "connection failure or 503.",
        )
        self._ejections = self.metrics.counter(
            "repro_router_ejections_total",
            "Shards removed from the ring by health checks.",
        )
        self._rejoins = self.metrics.counter(
            "repro_router_rejoins_total",
            "Ejected shards restored to the ring after recovering.",
        )
        self._timeouts = self.metrics.counter(
            "repro_router_timeouts_total",
            "Mine requests answered 504 by the router itself.",
        )
        self._healthy_gauge = self.metrics.gauge(
            "repro_router_shards_healthy",
            "Shards currently owning ring arcs.",
        )
        self._healthy_gauge.set(float(len(self.shards)))
        self._pools: dict[str, list[tuple]] = {name: [] for name in self.shards}
        self._health_task: asyncio.Task | None = None
        self._stopped = False
        super().__init__(
            routes={
                "/mine": ("POST", self._proxy_mine),
                "/healthz": ("GET", self._get_healthz),
                "/stats": ("GET", self._get_stats),
                "/metrics": ("GET", self._get_metrics),
            },
            prefix_route=("/trace/", "GET", self._assemble_trace),
            requests=http_requests,
            role="router",
            drain_timeout=drain_timeout,
        )

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind the front door and start the health sweep.

        As :meth:`MiningService.start`: ``port=0`` binds an ephemeral
        port; the bound ``(host, port)`` is returned and kept on
        :attr:`address`.  A stopped router cannot be restarted.
        """
        if self._stopped:
            raise RuntimeError(
                "this RouterService has been stopped and cannot be "
                "restarted; build a new one"
            )
        host, port = await self._bind(host, port)
        self._health_task = asyncio.create_task(self._health_loop())
        _LOG.info(
            "router_started", address=f"{host}:{port}", shards=len(self.shards)
        )
        return self.address

    async def stop(self) -> None:
        """Ordered shutdown: close the door, flush, drain shard-by-shard.

        New requests are refused with 503 while in-flight exchanges
        flush (bounded by ``drain_timeout``).  Then each **owned**
        shard, in name order, is removed from the ring and SIGTERMed --
        its own graceful drain answers whatever it still holds -- and
        waited on before the next shard is touched.  Externally managed
        upstreams are left running.
        """
        self._stopped = True
        await self._close_door()
        if self._health_task is not None:
            self._health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._health_task
            self._health_task = None
        await self._drain()
        for name in sorted(self.shards):
            state = self.shards[name]
            self.ring.remove(name)
            self._close_pool(name)
            if state.process is not None:
                await asyncio.get_running_loop().run_in_executor(
                    None, state.process.terminate, self.drain_timeout
                )
                _LOG.info("router_drained_shard", shard=name)
        if self.trace_sink is not None:
            self.trace_sink.close()
        self._healthy_gauge.set(0.0)

    # ------------------------------------------------------------------
    # Health.
    # ------------------------------------------------------------------

    async def _health_loop(self) -> None:
        """Sweep every shard's ``/healthz`` each interval, forever."""
        while True:
            await asyncio.sleep(self.health_interval)
            await asyncio.gather(
                *(self._probe(state) for state in self.shards.values()),
                return_exceptions=True,
            )
            self._healthy_gauge.set(
                float(sum(s.healthy for s in self.shards.values()))
            )

    async def _probe(self, state: ShardState) -> None:
        """One health check; eject or rejoin ``state`` accordingly."""
        try:
            status, _, _, body = await asyncio.wait_for(
                self._get(state.address, "/healthz"),
                timeout=self.probe_timeout,
            )
            payload = json.loads(body)
            health = payload.get("status", "ok")
        except (OSError, asyncio.TimeoutError, ValueError) as exc:
            state.consecutive_failures += 1
            state.detail = f"{type(exc).__name__}: {exc}"[:200]
            if (
                state.healthy
                and state.consecutive_failures >= self.fail_after
            ):
                self._eject(state, "down")
            return
        state.consecutive_failures = 0
        if status == 200 and health == "ok":
            state.detail = ""
            if not state.healthy:
                self._rejoin(state)
            state.status = "ok"
        else:
            state.detail = str(payload.get("reason", f"http {status}"))[:200]
            if state.healthy:
                self._eject(state, "degraded")
            state.status = "degraded"

    def _eject(self, state: ShardState, status: str) -> None:
        """Remove one shard from the ring (its arcs fall to survivors)."""
        state.healthy = False
        state.status = status
        self.ring.remove(state.name)
        self._close_pool(state.name)
        self._ejections.inc()
        _LOG.warning(
            "shard_ejected",
            shard=state.name,
            status=status,
            detail=state.detail,
        )

    def _rejoin(self, state: ShardState) -> None:
        """Restore a recovered shard to the ring."""
        state.healthy = True
        state.status = "ok"
        self.ring.add(state.name)
        self._rejoins.inc()
        _LOG.info("shard_rejoined", shard=state.name)

    def _record_exchange_failure(self, state: ShardState, exc: Exception) -> None:
        """A proxy exchange failed at the transport: count it toward
        ejection so a crashed shard leaves the ring without waiting out
        ``fail_after`` full health sweeps."""
        state.consecutive_failures += 1
        state.detail = f"{type(exc).__name__}: {exc}"[:200]
        if state.healthy and state.consecutive_failures >= self.fail_after:
            self._eject(state, "down")

    # ------------------------------------------------------------------
    # Upstream transport.
    # ------------------------------------------------------------------

    def _close_pool(self, name: str) -> None:
        for _, writer in self._pools.get(name, []):
            writer.close()
        self._pools[name] = []

    async def _get(
        self, address: tuple[str, int], target: str
    ) -> tuple[int, str, dict[str, str], bytes]:
        """One ``GET`` on a fresh connection (health probes, fan-out)."""
        reader, writer = await asyncio.open_connection(
            *address, limit=MAX_HEAD_BYTES
        )
        request = (
            f"GET {target} HTTP/1.1\r\nHost: {address[0]}:{address[1]}\r\n"
            "Content-Length: 0\r\nConnection: close\r\n\r\n"
        )
        try:
            return await self._exchange(
                reader, writer, request.encode("latin-1")
            )
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    @staticmethod
    async def _exchange(
        reader, writer, request: bytes
    ) -> tuple[int, str, dict[str, str], bytes]:
        """Send one request and read its answer: ``(status, reason,
        headers, body)``.

        A shard that closes the connection before answering raises
        :class:`ConnectionResetError`: on a pooled connection that is a
        stale keep-alive, on a fresh one a failed exchange.
        """
        writer.write(request)
        await writer.drain()
        answer = await read_message(reader, response=True)
        if answer is None:
            raise ConnectionResetError("closed before answering")
        return answer

    async def _pooled_exchange(
        self, state: ShardState, request: bytes
    ) -> tuple[int, str, dict[str, str], bytes]:
        """One keep-alive exchange with ``state``, reusing its pool.

        A pooled connection that fails is assumed stale (the shard may
        have closed it between requests) and the exchange is repeated
        once on a fresh connection; a fresh connection failing is the
        shard being genuinely unreachable and propagates to the caller.
        """
        pool = self._pools.setdefault(state.name, [])
        while pool:
            reader, writer = pool.pop()
            if writer.is_closing():
                writer.close()
                continue
            try:
                answer = await self._exchange(reader, writer, request)
            except (OSError, ValueError):
                writer.close()
                continue  # stale keep-alive; fall through to fresh
            self._return_to_pool(state, reader, writer, answer[2])
            return answer
        reader, writer = await asyncio.open_connection(
            *state.address, limit=MAX_HEAD_BYTES
        )
        try:
            answer = await self._exchange(reader, writer, request)
        except BaseException:
            writer.close()
            raise
        self._return_to_pool(state, reader, writer, answer[2])
        return answer

    def _return_to_pool(self, state, reader, writer, headers) -> None:
        """Park a connection for reuse unless the shard asked to close."""
        closing = "close" in headers.get("connection", "").lower()
        if closing or not state.healthy or self._draining:
            writer.close()
            return
        self._pools.setdefault(state.name, []).append((reader, writer))

    # ------------------------------------------------------------------
    # Endpoints.
    # ------------------------------------------------------------------

    async def _get_healthz(self, path, query, headers, body) -> bytes:
        return response_bytes(200, self.healthz())

    async def _get_stats(self, path, query, headers, body) -> bytes:
        target = f"{path}?{query}" if query else path
        return response_bytes(200, await self._aggregate_stats(target))

    async def _get_metrics(self, path, query, headers, body) -> bytes:
        return text_response_bytes(200, await self._aggregate_metrics())

    # ------------------------------------------------------------------
    # POST /mine proxying.
    # ------------------------------------------------------------------

    #: Bodies above this size hash + deadline-sniff on a worker thread,
    #: mirroring the service's parse offload.
    _OFFLOAD_PARSE_BYTES = 256 * 1024

    @staticmethod
    def _routing_info(body: bytes) -> tuple[str, int | None]:
        """(routing key, timeout_ms) for one raw ``/mine`` body.

        The body is decoded once, for both.  ``timeout_ms`` is sniffed
        leniently: a malformed value routes with no router-side deadline
        and earns its 400 on the shard, where the real validator lives,
        as does a body that does not decode (nesting too deep included).
        """
        try:
            payload = json.loads(body)
        except (ValueError, RecursionError):
            payload = None
        timeout_ms = (
            payload.get("timeout_ms") if isinstance(payload, dict) else None
        )
        if (
            not isinstance(timeout_ms, int)
            or isinstance(timeout_ms, bool)
            or timeout_ms <= 0
        ):
            timeout_ms = None
        return routing_key(body, payload), timeout_ms

    async def _proxy_mine(self, path, query, headers: dict, body: bytes) -> bytes:
        """Place, forward, and (once) fail over one mine request.

        The router is the edge of the traced fleet: it adopts a valid
        client-supplied ``X-Trace-Id`` (else mints one), injects the id
        plus ``X-Parent-Span: proxy`` on the upstream request so the
        owning shard's trace hangs under this router's ``proxy`` span,
        and stamps the id on every answer it synthesizes itself
        (503/504) so even a failed request stays correlatable.
        """
        inbound = headers.get("x-trace-id")
        if inbound is not None and valid_trace_id(inbound):
            trace = Trace(inbound)
        else:
            trace = Trace()
        route_started = time.perf_counter()
        if len(body) > self._OFFLOAD_PARSE_BYTES:
            key, timeout_ms = await asyncio.get_running_loop().run_in_executor(
                None, self._routing_info, body
            )
        else:
            key, timeout_ms = self._routing_info(body)
        deadline = Deadline.from_timeout_ms(timeout_ms)
        request = (
            b"POST /mine HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            + b"Content-Length: %d\r\n" % len(body)
            + b"X-Trace-Id: " + trace.trace_id.encode("latin-1")
            + b"\r\nX-Parent-Span: proxy\r\n"
            + b"Connection: keep-alive\r\n\r\n"
            + body
        )
        # Owner first, then the deterministic failover order; one
        # retry means at most two attempts.
        preferred = self.ring.preference(key, limit=2)
        trace.add(
            "route", route_started, time.perf_counter(),
            candidates=list(preferred),
        )
        if not preferred:
            return self._synthesized_error(
                trace,
                503,
                {"error": "no healthy shards", "retry_after": 1},
                extra_headers=(("Retry-After", "1"),),
            )
        last_error: str | None = None
        for attempt, name in enumerate(preferred):
            if deadline is not None and deadline.expired():
                self._timeouts.inc()
                return self._synthesized_error(
                    trace,
                    504,
                    {
                        "error": "deadline expired before a shard answered",
                        "timeout_ms": timeout_ms,
                    },
                )
            state = self.shards[name]
            if attempt > 0:
                self._retries.inc()
            attempt_started = time.perf_counter()
            try:
                if deadline is not None:
                    status, _, up_headers, resp_body = await asyncio.wait_for(
                        self._pooled_exchange(state, request),
                        timeout=max(0.0, deadline.remaining()) + 1.0,
                    )
                else:
                    status, _, up_headers, resp_body = (
                        await self._pooled_exchange(state, request)
                    )
            except asyncio.TimeoutError:
                # The shard's own 504 should normally win this race (the
                # grace second); if the shard is wedged, answer for it.
                self._timeouts.inc()
                self._proxied.labels(shard=name, status="504").inc()
                trace.add(
                    "proxy", attempt_started, time.perf_counter(),
                    shard=name, attempt=attempt, status="timeout",
                )
                return self._synthesized_error(
                    trace,
                    504,
                    {
                        "error": "shard did not answer within the deadline",
                        "timeout_ms": timeout_ms,
                        "shard": name,
                    },
                )
            except (OSError, ValueError) as exc:
                self._record_exchange_failure(state, exc)
                self._proxied.labels(shard=name, status="error").inc()
                trace.add(
                    "proxy", attempt_started, time.perf_counter(),
                    shard=name, attempt=attempt, status="error",
                    exception=type(exc).__name__,
                )
                last_error = f"{name}: {type(exc).__name__}"
                continue
            self._proxied.labels(shard=name, status=str(status)).inc()
            trace.add(
                "proxy", attempt_started, time.perf_counter(),
                shard=name, attempt=attempt, status=status,
            )
            if status == 503 and attempt + 1 < len(preferred):
                # Shard draining (or refusing): the one idempotent retry.
                last_error = f"{name}: 503"
                continue
            self._finish_trace(trace, status)
            return self._client_response(status, up_headers, resp_body, name)
        return self._synthesized_error(
            trace,
            503,
            {
                "error": f"no shard could serve the request ({last_error})",
                "retry_after": 1,
            },
            extra_headers=(("Retry-After", "1"),),
        )

    def _finish_trace(self, trace: Trace, status: int) -> None:
        """Finish + record one router-side trace, if sampling keeps it.

        The sampler hashes the trace id, so the router and the shard
        reach the same keep/drop decision without coordination --
        ``GET /trace/<id>`` either finds both halves or neither.
        """
        trace.finish()
        if not self.sampler.keep(
            trace.trace_id,
            status=status,
            total_ms=trace.total_seconds * 1000.0,
            slow_ms=self.traces.slow_ms,
        ):
            return
        self.traces.record(trace)
        if self.trace_sink is not None:
            self.trace_sink.write(trace.tree())

    def _synthesized_error(
        self,
        trace: Trace,
        status: int,
        payload: dict,
        extra_headers: tuple = (),
    ) -> bytes:
        """An error the *router* answers with (no shard spoke for it).

        Unlike proxied answers -- whose ``X-Trace-Id`` rides through
        from the shard -- a synthesized 503/504 would otherwise carry
        no trace id at all, leaving the client nothing to correlate
        with router logs.  Stamp the id into the body and the header,
        and record the router-side trace (errors are always kept).
        """
        payload = dict(payload)
        payload["trace_id"] = trace.trace_id
        self._finish_trace(trace, status)
        return response_bytes(
            status,
            payload,
            extra_headers=(
                ("X-Trace-Id", trace.trace_id),
                *extra_headers,
            ),
        )

    @staticmethod
    def _client_response(
        status: int,
        headers: dict[str, str],
        body: bytes,
        shard: str,
    ) -> bytes:
        """Re-frame one upstream answer for the client, body untouched.

        Upstream headers ride along in their order and with their values
        (``X-Trace-Id``, ``Retry-After``, ``Content-Type``), names in
        the canonical capitalisation the service writes; only
        hop-by-hop framing is the router's own, plus ``X-Shard`` naming
        the origin.
        """
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
        for name, value in headers.items():
            if name not in _HOP_HEADERS:
                lines.append(f"{name.title()}: {value}")
        lines.append(f"Content-Length: {len(body)}")
        lines.append("Connection: keep-alive")
        lines.append(f"X-Shard: {shard}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body

    # ------------------------------------------------------------------
    # Aggregated observability.
    # ------------------------------------------------------------------

    def healthz(self) -> dict:
        """Router liveness: ok / degraded / down plus per-shard detail.

        ``ok`` means every shard owns ring arcs; ``degraded`` means at
        least one (but not every) shard is ejected; ``down`` means the
        ring is empty and ``/mine`` is answering 503.
        """
        healthy = sum(s.healthy for s in self.shards.values())
        if healthy == len(self.shards):
            status = "ok"
        elif healthy:
            status = "degraded"
        else:
            status = "down"
        return {
            "status": status,
            "role": "router",
            "uptime_seconds": self.uptime_seconds,
            "shards_healthy": healthy,
            "shards_total": len(self.shards),
            "shards": {
                name: state.summary()
                for name, state in sorted(self.shards.items())
            },
        }

    async def _fetch_from_shard(
        self, state: ShardState, target: str
    ) -> tuple[int, bytes] | None:
        """GET ``target`` from one shard; ``None`` when unreachable."""
        try:
            status, _, _, body = await asyncio.wait_for(
                self._get(state.address, target),
                timeout=max(self.probe_timeout, 2.0),
            )
            return status, body
        except (OSError, asyncio.TimeoutError, ValueError):
            return None

    async def _assemble_trace(self, path, query, headers, body) -> bytes:
        """``GET /trace/<id>``: the fleet-wide view of one request.

        The router holds the top of the tree (``route`` + per-attempt
        ``proxy`` spans); the owning shard holds the request's service
        spans (parse -> queue_wait -> batch_mine -> finalize ->
        serialize, with a kernel child).  This endpoint stitches
        them: each shard that recorded the id is fetched live and its
        span tree attached under the router's matching ``proxy`` span.
        Shard span times stay on the shard's own clock (re-based to 0
        at *its* trace start) -- durations are comparable, offsets
        across processes are not, and the node says so.
        """
        trace_id = path[len("/trace/"):]
        if not valid_trace_id(trace_id):
            return response_bytes(
                400,
                {"error": "malformed trace id", "trace_id": trace_id[:64]},
            )
        router_tree = self.traces.get(trace_id)
        # Ask the shards the proxy spans name; if the router never
        # recorded the trace (evicted, or pre-sampling restart), fan
        # out to everyone rather than answer 404 for a trace a shard
        # still holds.
        candidates: list[str] = []
        if router_tree is not None:
            for node in router_tree.get("spans", ()):
                if node.get("name") != "proxy":
                    continue
                shard = (node.get("notes") or {}).get("shard")
                if shard in self.shards and shard not in candidates:
                    candidates.append(shard)
        if not candidates:
            candidates = sorted(self.shards)
        fetched = await asyncio.gather(
            *(
                self._fetch_from_shard(
                    self.shards[name], f"/trace/{trace_id}"
                )
                for name in candidates
            )
        )
        shard_trees: dict[str, dict] = {}
        for name, answer in zip(candidates, fetched):
            if answer is None:
                continue
            status, body = answer
            if status != 200:
                continue
            try:
                tree = json.loads(body)
            except (ValueError, UnicodeDecodeError):
                continue
            if isinstance(tree, dict):
                shard_trees[name] = tree
        if router_tree is None and not shard_trees:
            return response_bytes(
                404,
                {
                    "error": (
                        "trace not found on the router or any shard "
                        "(not sampled, or aged out of the trace rings)"
                    ),
                    "trace_id": trace_id,
                },
            )
        if router_tree is None:
            router_tree = {
                "trace_id": trace_id,
                "total_ms": None,
                "spans": [],
                "note": (
                    "router did not record this trace "
                    "(evicted or recorded before a restart); "
                    "shard spans attached to synthesized proxy nodes"
                ),
            }
        for name in sorted(shard_trees):
            self._stitch_shard_trace(router_tree, name, shard_trees[name])
        router_tree["assembled"] = True
        router_tree["shards"] = sorted(shard_trees)
        return response_bytes(200, router_tree)

    @staticmethod
    def _stitch_shard_trace(
        router_tree: dict, shard: str, shard_tree: dict
    ) -> None:
        """Attach one shard's span tree under the router's proxy span.

        The *last* ``proxy`` span naming this shard wins (the final
        attempt is the one the shard's trace describes); a trace the
        router never recorded gets a synthesized proxy node instead.
        """
        target = None
        for node in router_tree.get("spans", ()):
            if node.get("name") != "proxy":
                continue
            if (node.get("notes") or {}).get("shard") == shard:
                target = node
        if target is None:
            target = {
                "name": "proxy",
                "ms": shard_tree.get("total_ms"),
                "start_ms": 0.0,
                "notes": {"shard": shard, "synthesized": True},
            }
            router_tree.setdefault("spans", []).append(target)
        shard_node = {
            "name": f"shard:{shard}",
            "ms": shard_tree.get("total_ms"),
            "start_ms": 0.0,
            "notes": {
                "shard": shard,
                "clock": "shard-relative",
                "trace_id": shard_tree.get("trace_id"),
                "parent_span": shard_tree.get("parent_span"),
            },
            "children": list(shard_tree.get("spans") or ()),
        }
        if shard_tree.get("profile") is not None:
            shard_node["notes"]["profile"] = shard_tree["profile"]
        target.setdefault("children", []).append(shard_node)

    async def _aggregate_stats(self, target: str) -> dict:
        """The ``GET /stats`` payload: router view + every shard's own."""
        names = sorted(self.shards)
        fetched = await asyncio.gather(
            *(
                self._fetch_from_shard(self.shards[name], target)
                for name in names
            )
        )
        shards: dict[str, object] = {}
        for name, answer in zip(names, fetched):
            if answer is None:
                shards[name] = {"error": "unreachable"}
                continue
            status, body = answer
            try:
                shards[name] = json.loads(body)
            except ValueError:
                shards[name] = {"error": f"http {status}: non-JSON stats"}
        return {
            "router": {
                "uptime_seconds": self.uptime_seconds,
                "ring": {
                    "nodes": sorted(self.ring.nodes),
                    "replicas": self.ring.replicas,
                },
                "shards": {
                    name: self.shards[name].summary() for name in names
                },
                "tracing": {
                    "sample_rate": self.sampler.rate,
                    "recorded": self.traces.snapshot()["recorded"],
                    "sink": (
                        {
                            "path": str(self.trace_sink.path),
                            "written": self.trace_sink.written,
                            "errors": self.trace_sink.errors,
                        }
                        if self.trace_sink is not None
                        else None
                    ),
                },
                "metrics": self.metrics.snapshot(),
            },
            "shards": shards,
        }

    async def _aggregate_metrics(self) -> str:
        """The ``GET /metrics`` body: all shards merged + router families.

        Every shard sample gains a ``shard="<name>"`` label; families
        seen on several shards render once (first shard's HELP/TYPE)
        with all shards' samples grouped under them, keeping the
        exposition valid for a single scrape of the whole fleet.
        """
        names = sorted(self.shards)
        fetched = await asyncio.gather(
            *(
                self._fetch_from_shard(self.shards[name], "/metrics")
                for name in names
            )
        )
        families: dict[str, dict] = {}
        for name, answer in zip(names, fetched):
            if answer is None or answer[0] != 200:
                continue
            _merge_exposition(families, answer[1].decode("utf-8"), name)
        lines: list[str] = []
        for family in families.values():
            lines.extend(family["meta"])
            lines.extend(family["samples"])
        rendered = self.metrics.render_prometheus()
        if rendered:
            lines.append(rendered.rstrip("\n"))
        return "\n".join(lines) + "\n" if lines else ""

    def __repr__(self) -> str:
        healthy = sum(s.healthy for s in self.shards.values())
        return (
            f"RouterService(address={self.address!r}, "
            f"shards={healthy}/{len(self.shards)} healthy)"
        )


def _merge_exposition(
    families: dict[str, dict], text: str, shard: str
) -> None:
    """Fold one shard's Prometheus text into ``families`` with a
    ``shard`` label on every sample.

    Sample lines are ``name[{labels}] value [timestamp]``; the shard
    label is appended to existing labels or becomes the only one.
    Comment lines (# HELP / # TYPE) key the family of the samples that
    follow; the first shard to present a family supplies its metadata.
    """
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                family = families.setdefault(
                    parts[2], {"meta": [], "samples": []}
                )
                if not any(
                    meta.split(None, 3)[:3] == parts[:3]
                    for meta in family["meta"]
                ):
                    family["meta"].append(line)
            continue
        name_and_labels, _, rest = line.partition(" ")
        brace = name_and_labels.find("{")
        if brace == -1:
            base = name_and_labels
            labeled = f'{base}{{shard="{shard}"}}'
        else:
            base = name_and_labels[:brace]
            inner = name_and_labels[brace + 1 : name_and_labels.rfind("}")]
            joined = f'{inner},shard="{shard}"' if inner else f'shard="{shard}"'
            labeled = f"{base}{{{joined}}}"
        # Histogram children (name_bucket, name_sum, name_count) group
        # under their parent family, whose # HELP/# TYPE came first.
        family_key = base
        for suffix in ("_bucket", "_sum", "_count"):
            if base.endswith(suffix) and base[: -len(suffix)] in families:
                family_key = base[: -len(suffix)]
                break
        family = families.setdefault(family_key, {"meta": [], "samples": []})
        family["samples"].append(f"{labeled} {rest}")
