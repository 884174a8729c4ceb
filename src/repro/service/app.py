"""The async mining service: asyncio front-end over the corpus engine.

This is the north-star serving layer: a long-running process that keeps
every expensive thing warm -- the mining thread pool
(:class:`~repro.engine.executors.ThreadExecutor`), the kernel backends,
and the calibration null distributions
(:class:`~repro.service.store.DiskCalibrationCache`, so even a
*restart* stays warm) -- while a
:class:`~repro.service.batcher.MicroBatcher` coalesces concurrent
requests into batched kernel dispatch.

Endpoints (JSON over a minimal HTTP/1.1 subset, stdlib only):

* ``POST /mine`` -- mine one request (see
  :mod:`repro.service.protocol` for the schema).  Responses carry the
  full :meth:`~repro.engine.corpus.CorpusResult.payload` and are
  bit-identical to a direct ``CorpusEngine.run`` of the same request.
  Over capacity: ``429`` with a ``Retry-After`` hint.
* ``GET /healthz`` -- liveness: status, uptime, queue depth and the
  kernel backend that serves (``backend``/``backend_resolved``, plus
  ``backend_fallback_reason`` when ``native`` fell back to numpy) and
  whether an *enforced* SLO fast-burn condition holds
  (``slo_fast_burn``/``slo_fast_burn_reason``, see :mod:`repro.obs.slo`).
  ``status`` stays ``ok`` through both: a shard that still answers
  stays in the router's rotation.
* ``GET /stats`` -- queue depth, batch fill, cache hit rates, executor
  diagnostics, and the full metrics snapshot; ``GET /stats?trace=1``
  additionally returns the recent/slow request span trees (see
  :mod:`repro.obs.tracing`).
* ``GET /metrics`` -- the same registry in Prometheus text exposition
  format (version 0.0.4), ready to scrape; includes the
  ``repro_slo_burn_rate`` gauges refreshed at scrape time.
* ``GET /trace/<id>`` -- the recorded span tree for one trace id (404
  once it has aged out of both rings).  Behind the router this is the
  per-shard half of fleet-wide trace assembly.
* ``GET /debug/profile?seconds=N`` -- the last ``N`` seconds of the
  continuous sampling profiler as collapsed-stack text
  (flamegraph-ready; see :mod:`repro.obs.profile`).

Observability is wired through a per-service
:class:`~repro.obs.metrics.MetricsRegistry` shared by the batcher, the
engine and the calibration cache; every request gets a
:class:`~repro.obs.tracing.Trace` whose id is echoed in the
``X-Trace-Id`` response header (and inside 4xx/5xx error bodies, so a
failing client can quote it).  A request arriving with a *valid*
``X-Trace-Id`` header (the router, or any upstream proxy, stamps one)
has its id **adopted** rather than replaced -- the one id follows the
request through every process it touches -- and an ``X-Parent-Span``
header marks which upstream span this process's trace hangs under.
Successful ``POST /mine`` bodies are **unchanged** -- byte-identical to
an engine run, traced or not, sampled or not.

Run it with ``repro-mss serve`` (see :mod:`repro.cli`), or in-process::

    service = MiningService(BernoulliModel.uniform("ab"), workers=2)
    with ServiceThread(service) as handle:
        client = ServiceClient(*handle.address)
        client.mine(text="ab" * 40)
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

from repro.core.model import BernoulliModel
from repro.engine.calibration import CalibrationCache
from repro.engine.corpus import CorpusEngine
from repro.engine.deadline import Deadline, DeadlineExceeded
from repro.engine.executors import ThreadExecutor
from repro.kernels import get_backend
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import SamplingProfiler
from repro.obs.slo import SloTracker, parse_slo_spec
from repro.obs.tracesink import TraceSampler, TraceSink
from repro.obs.tracing import Trace, TraceRecorder, valid_trace_id
from repro.service.batcher import (
    DEFAULT_BATCH_DOCS,
    MicroBatcher,
    RequestTooLarge,
    ServiceDraining,
    ServiceOverloaded,
)
from repro.service.frontdoor import FrontDoor
from repro.service.protocol import (
    ProtocolError,
    parse_mine_request,
    response_bytes,
    text_response_bytes,
)

__all__ = ["MiningService", "ServiceThread"]

#: Bounds on the ``GET /debug/profile?seconds=N`` window.
_PROFILE_WINDOW_MAX = 600.0


class MiningService(FrontDoor):
    """A long-running mining service over one :class:`CorpusEngine`.

    Its HTTP lifecycle -- connection loop, drain, request counting,
    ``serve_forever``/``run`` -- is the shared
    :class:`~repro.service.frontdoor.FrontDoor`.

    Parameters
    ----------
    model:
        The service's default null model (requests may override it with
        an explicit ``alphabet``/``probs``).
    workers:
        Mining threads of the engine's
        :class:`~repro.engine.executors.ThreadExecutor`.  ``> 1``
        starts a pool that lives until :meth:`stop`, mines each batch
        on the lanes of every thread on the native kernels and scores
        cold calibrations.  When the backend resolves to numpy or python (a
        host without a compiler) batches mine on one thread, as with
        ``workers=1``; ``/stats`` reports the thread count that
        actually mines (``engine.threads``).
    batch_docs:
        Micro-batch target size: documents per dispatched batch (see
        :class:`~repro.service.batcher.MicroBatcher`).
    max_pending_docs / tenant_fair_share:
        Backpressure bound and per-tenant fair-share quota -- see
        :class:`~repro.service.batcher.MicroBatcher`.
    correction / alpha:
        Engine defaults applied when a request does not set its own.
    calibration:
        A :class:`~repro.engine.calibration.CalibrationCache` (typically
        the disk-backed :class:`~repro.service.store.
        DiskCalibrationCache`) for Monte-Carlo family-wise p-values;
        ``None`` keeps asymptotic p-values.
    backend:
        Kernel backend name applied to requests that do not pick their
        own (``repro-mss serve --backend``); ``None`` defers to
        ``REPRO_BACKEND`` / the registry default.
    default_timeout_ms:
        End-to-end deadline applied to requests that carry no
        ``timeout_ms`` of their own (``serve --default-timeout-ms``);
        ``None`` leaves such requests unbounded.  Expired requests are
        answered 504 with the trace id in the body.
    drain_timeout:
        Seconds :meth:`stop` waits for in-flight exchanges to flush
        their responses before dropping connections (``serve
        --drain-timeout``; previously hardcoded at 10).
    trace_sample:
        Head-based sampling rate in ``[0, 1]`` (``serve
        --trace-sample``): the fraction of traces recorded into the
        rings / sink.  Deterministic on the trace id, and errors, 504s
        and slow requests are always kept -- see
        :class:`~repro.obs.tracesink.TraceSampler`.
    trace_log:
        Optional path of a JSON-lines trace sink (``serve
        --trace-log``): every kept trace tree is appended, so traces
        survive the process.
    slo:
        Service-level objectives.  A spec string like
        ``"p99:250ms,errors:0.1%"`` (``serve --slo``) builds an
        *enforced* :class:`~repro.obs.slo.SloTracker` whose fast-burn
        condition sets ``slo_fast_burn`` on ``/healthz`` (``status``
        stays ``ok``, see :meth:`healthz`); a prebuilt tracker is used
        as-is; ``None`` tracks default objectives for the
        ``repro_slo_*`` gauges without ever setting ``slo_fast_burn``.
    engine:
        Escape hatch: a fully built engine to serve with (overrides
        ``workers``/``correction``/``alpha``/``calibration``).
    """

    def __init__(
        self,
        model: BernoulliModel | None = None,
        *,
        workers: int = 1,
        batch_docs: int = DEFAULT_BATCH_DOCS,
        max_pending_docs: int = 1024,
        tenant_fair_share: float = 1.0,
        correction: str = "bh",
        alpha: float = 0.05,
        calibration: CalibrationCache | None = None,
        backend: str | None = None,
        default_timeout_ms: int | None = None,
        drain_timeout: float = 10.0,
        trace_sample: float = 1.0,
        trace_log: str | None = None,
        slo: str | SloTracker | None = None,
        engine: CorpusEngine | None = None,
    ) -> None:
        if engine is None:
            engine = CorpusEngine(
                executor=ThreadExecutor(workers),
                calibration=calibration,
                correction=correction,
                alpha=alpha,
            )
        self.model = model
        self.backend = backend
        self.default_timeout_ms = default_timeout_ms
        self.engine = engine
        # One registry for the whole service: the batcher, engine and
        # calibration cache all record into it, so /stats and GET
        # /metrics describe the same numbers.  Fresh per service (not
        # the process default) so two services never mix counters.
        self.metrics = MetricsRegistry()
        engine.metrics = self.metrics
        if engine.calibration is not None:
            engine.calibration.metrics = self.metrics
        self.traces = TraceRecorder()
        self.sampler = TraceSampler(trace_sample)
        self.trace_sink = TraceSink(trace_log) if trace_log else None
        if isinstance(slo, SloTracker):
            self.slo = slo
        elif slo is not None:
            self.slo = SloTracker(parse_slo_spec(slo), enforce=True)
        else:
            # Default tracker: the repro_slo_* gauges always render (and
            # tools/check_metrics.py can require them), but with
            # enforce=False the objectives never touch /healthz.
            self.slo = SloTracker(enforce=False)
        self.slo.register(self.metrics)
        # Continuous, ~100 Hz; started with the server in start() and
        # stopped with it.  Feeds GET /debug/profile and the per-phase
        # sample counts attached to slow traces.
        self.profiler = SamplingProfiler()
        self.batcher = MicroBatcher(
            engine,
            batch_docs=batch_docs,
            max_pending_docs=max_pending_docs,
            tenant_fair_share=tenant_fair_share,
            metrics=self.metrics,
        )
        self._log = get_logger("repro.service")
        http_requests = self.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests served, by endpoint and status code.",
            labelnames=("endpoint", "status"),
        )
        self._http_seconds = self.metrics.histogram(
            "repro_http_request_seconds",
            "End-to-end HTTP request latency, by endpoint.",
            labelnames=("endpoint",),
        )
        self._stage_seconds = self.metrics.histogram(
            "repro_request_stage_seconds",
            "Per-stage seconds of traced mine requests.",
            labelnames=("stage",),
        )
        self._uptime_gauge = self.metrics.gauge(
            "repro_service_uptime_seconds",
            "Seconds since the service bound its socket.",
        )
        self._queue_gauge = self.metrics.gauge(
            "repro_service_queue_depth_docs",
            "Documents currently queued in the micro-batcher.",
        )
        # Created at zero so the family renders in /metrics before the
        # first timeout (dashboards can alert on its rate from scrape 1).
        self._requests_timed_out = self.metrics.counter(
            "repro_requests_timed_out_total",
            "Mine requests answered 504 after their deadline passed.",
        )
        self._backend_fallbacks = self.metrics.counter(
            "repro_backend_fallback_total",
            "Times the kernel backend resolved at start-up differed from "
            "the one requested (native without a compiler serves numpy).",
        )
        super().__init__(
            routes={
                "/mine": ("POST", self._mine),
                "/healthz": ("GET", self._get_healthz),
                "/stats": ("GET", self._get_stats),
                "/metrics": ("GET", self._get_metrics),
                "/debug/profile": ("GET", self._profile_dump),
            },
            prefix_route=("/trace/", "GET", self._trace_lookup),
            requests=http_requests,
            role="service",
            drain_timeout=drain_timeout,
        )

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Resolve the kernel backend, bind, serve.

        ``port=0`` binds an ephemeral port.  Returns (and stores on
        :attr:`address`) the actual ``(host, port)`` pair.  A failure
        before serving (port in use, bad host, unknown backend) releases
        everything started before it -- the batcher dispatcher does not
        outlive a service that never served.
        A stopped service cannot be restarted (its batcher and mining
        thread are gone): build a new :class:`MiningService` instead.
        """
        if self.batcher.closed:
            raise RuntimeError(
                "this MiningService has been stopped and cannot be "
                "restarted; build a new one"
            )
        await self.batcher.start()
        loop = asyncio.get_running_loop()
        try:
            # Load (or compile) the native library and run its parity
            # self-check now, off the event loop, instead of on the
            # first request.
            backend = await loop.run_in_executor(None, self.backend_status)
            if backend["backend_resolved"] != backend["backend"]:
                self._backend_fallbacks.inc()
            # Created at zero so the family renders (for every shard
            # behind a router) before the first mined document.
            self.engine.evaluation_counter().labels(
                backend=backend["backend_resolved"]
            )
            address = await self._bind(host, port)
        except BaseException:
            await self.batcher.close()
            self.engine.close()
            raise
        self.profiler.start()
        return address

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, release the threads.

        In-flight and already-queued requests complete and are answered;
        new submissions (and new requests arriving on parked keep-alive
        connections) are answered 503 with ``Connection: close`` while
        draining.  Idle keep-alive connections are then dropped, and
        finally the engine's mining thread pool is shut down.  The
        flush wait is bounded by ``drain_timeout`` seconds.
        """
        await self._close_door()
        # The batcher resolves every accepted request; the handlers then
        # get drain_timeout to flush those responses to their sockets.
        await self.batcher.close()
        await self._drain()
        self.profiler.stop()
        if self.trace_sink is not None:
            self.trace_sink.close()
        self.engine.close()

    def backend_status(self) -> dict:
        """The service's kernel backend, as ``/healthz`` and ``/stats``
        report it.

        ``backend`` is the one requested (``serve --backend``,
        ``REPRO_BACKEND`` or the registry default); ``backend_resolved``
        the one actually serving -- they differ only when ``native``
        fell back to numpy (no compiler or cached artifact), and then
        ``backend_fallback_reason`` says why.  ``lane_step`` is the
        native lane walker's step on this CPU, ``"avx2"`` or
        ``"scalar"`` (a host without AVX2 mines k = 4 corpora 1.4-1.9x
        slower), and ``None`` on any other backend.  The first call
        resolves the backend; :meth:`start` makes that call off the
        event loop.
        """
        kernel = get_backend(self.backend)
        status = {
            "backend": kernel.name,
            "backend_resolved": getattr(kernel, "resolved_name", kernel.name),
            "lane_step": getattr(kernel, "lane_step", None),
        }
        reason = getattr(kernel, "fallback_reason", None)
        if reason is not None:
            status["backend_fallback_reason"] = reason
        return status

    def stats(self) -> dict:
        """JSON-ready service metrics (the ``GET /stats`` payload)."""
        executor = self.engine.executor
        threads = getattr(executor, "threads", None)
        data = {
            "uptime_seconds": self.uptime_seconds,
            "batcher": self.batcher.stats(),
            "engine": {
                "executor": getattr(executor, "name", type(executor).__name__),
                "workers": getattr(executor, "workers", 1),
                "threads": threads(self.backend) if threads is not None else 1,
                **self.backend_status(),
                "correction": self.engine.correction,
                "alpha": self.engine.alpha,
            },
            "slo": self.slo.summary(),
            "profiler": self.profiler.summary(),
            "tracing": {
                "sample_rate": self.sampler.rate,
                "recorded": self.traces.snapshot()["recorded"],
                "sink": (
                    {
                        "path": self.trace_sink.path,
                        "written": self.trace_sink.written,
                        "errors": self.trace_sink.errors,
                    }
                    if self.trace_sink is not None
                    else None
                ),
            },
            "metrics": self.metrics.snapshot(),
        }
        if self.engine.calibration is not None:
            data["calibration"] = self.engine.calibration.summary()
        return data

    def healthz(self) -> dict:
        """JSON-ready liveness payload (the ``GET /healthz`` body).

        ``status`` is ``"ok"`` while the service answers.  Two slow or
        costly states ride along in their own fields and leave it at
        ``"ok"``, so the router keeps the shard in rotation:

        * an *enforced* SLO objective fast-burning its error budget
          (see :class:`~repro.obs.slo.SloTracker`): ``slo_fast_burn``
          is true and ``slo_fast_burn_reason`` says which objective,
          as does ``repro_slo_fast_burn_degraded`` on ``/metrics``.
          A ``degraded`` status would have the router eject every
          shard whose objective is too tight, and then no shard would
          answer at all;
        * a backend fallback (the :meth:`backend_status` fields and
          ``repro_backend_fallback_total``): the numpy fallback answers
          bit-identically, only slower.
        """
        slo_reason = self.slo.degraded()
        return {
            "status": "ok",
            "uptime_seconds": self.uptime_seconds,
            "queue_depth_docs": self.batcher.queue_depth_docs,
            "slo_fast_burn": slo_reason is not None,
            "slo_fast_burn_reason": slo_reason,
            **self.backend_status(),
        }

    # ------------------------------------------------------------------
    # Endpoints.
    # ------------------------------------------------------------------

    def _observe(self, endpoint: str, status: str, started: float) -> None:
        """Latency of every counted exchange; terminal ``/mine``
        outcomes also feed the SLO tracker (latency for every status,
        the 5xx flag for the error objectives)."""
        elapsed = time.perf_counter() - started
        self._http_seconds.labels(endpoint=endpoint).observe(elapsed)
        if endpoint == "/mine":
            self.slo.observe(int(status), elapsed)

    def render_metrics(self) -> str:
        """The ``GET /metrics`` body: Prometheus text exposition 0.0.4.

        Point-in-time gauges (uptime, queue depth, SLO burn rates) are
        refreshed at scrape time; everything else is
        already live in the registry.
        """
        self.slo.refresh(self.metrics)
        self._uptime_gauge.set(self.uptime_seconds)
        self._queue_gauge.set(float(self.batcher.queue_depth_docs))
        return self.metrics.render_prometheus()

    async def _get_healthz(self, path, query, headers, body) -> bytes:
        return response_bytes(200, self.healthz())

    async def _get_stats(self, path, query, headers, body) -> bytes:
        data = self.stats()
        if "trace=1" in query.split("&"):
            data["traces"] = self.traces.snapshot()
        return response_bytes(200, data)

    async def _get_metrics(self, path, query, headers, body) -> bytes:
        return text_response_bytes(200, self.render_metrics())

    async def _trace_lookup(self, path, query, headers, body) -> bytes:
        """The ``GET /trace/<id>`` body: one recorded span tree or 404."""
        trace_id = path[len("/trace/"):]
        if not valid_trace_id(trace_id):
            return response_bytes(
                400, {"error": "malformed trace id", "trace_id": trace_id[:64]}
            )
        tree = self.traces.get(trace_id)
        if tree is None:
            return response_bytes(
                404,
                {
                    "error": "trace not found (not sampled, or aged out "
                    "of the recent/slow rings)",
                    "trace_id": trace_id,
                },
            )
        return response_bytes(200, tree)

    async def _profile_dump(self, path, query, headers, body) -> bytes:
        """The ``GET /debug/profile`` body: collapsed stacks, plain text.

        ``?seconds=N`` selects the trailing window of the continuous
        sample ring (default 5 s, capped); because the profiler never
        stops, the answer is immediate -- no mid-request sampling wait.
        """
        seconds = 5.0
        for term in query.split("&"):
            key, _, value = term.partition("=")
            if key == "seconds" and value:
                try:
                    seconds = float(value)
                except ValueError:
                    return response_bytes(
                        400, {"error": f"bad seconds value {value!r}"}
                    )
        if not 0.0 < seconds <= _PROFILE_WINDOW_MAX:
            return response_bytes(
                400,
                {
                    "error": "seconds must be in "
                    f"(0, {_PROFILE_WINDOW_MAX:.0f}]"
                },
            )
        text = self.profiler.collapsed(seconds=seconds)
        return text_response_bytes(
            200, text, content_type="text/plain; charset=utf-8"
        )

    #: Bodies above this size are decoded and validated on a worker
    #: thread: json.loads plus the alphabet-membership encode pass over
    #: a many-megabyte corpus would otherwise stall every other
    #: connection sharing the event loop.
    _OFFLOAD_PARSE_BYTES = 256 * 1024

    async def _mine(self, path, query, headers: dict, body: bytes) -> bytes:
        """The ``POST /mine`` endpoint body.

        Every request gets a :class:`~repro.obs.tracing.Trace`; its id
        rides the ``X-Trace-Id`` header on all outcomes and inside the
        JSON body of error responses.  A request arriving with a valid
        ``X-Trace-Id`` header *adopts* that id (the router injected it;
        minting a fresh one here is exactly what made routed traces
        uncorrelatable), and ``X-Parent-Span`` names the upstream span
        this trace hangs under during fleet-wide assembly.  Successful
        bodies stay byte-identical to an untraced engine run.

        A request carrying ``timeout_ms`` (or inheriting the service's
        ``default_timeout_ms``) is stamped with a monotonic
        :class:`~repro.engine.deadline.Deadline` here; expiry anywhere
        along the pipeline -- at admission, while queued, or mid-mine --
        comes back as a 504 whose body carries the trace id.
        """
        inbound = headers.get("x-trace-id")
        parent_span = headers.get("x-parent-span")
        if inbound is not None and valid_trace_id(inbound):
            trace = Trace(
                inbound,
                parent_span=(
                    parent_span
                    if parent_span and len(parent_span) <= 64
                    else None
                ),
            )
        else:
            trace = Trace()

        def decode_and_validate():
            return parse_mine_request(
                json.loads(body),
                self.model,
                default_backend=self.backend,
                default_timeout_ms=self.default_timeout_ms,
            )

        parse_started = time.perf_counter()
        try:
            if len(body) > self._OFFLOAD_PARSE_BYTES:
                request = await asyncio.get_running_loop().run_in_executor(
                    None, decode_and_validate
                )
            else:
                request = decode_and_validate()
        except ProtocolError as exc:
            return self._error(trace, None, 400, {"error": str(exc)})
        except (ValueError, RecursionError):
            # RecursionError: json.loads on nesting deeper than the
            # interpreter's recursion limit (a body of "[[[[...").
            return self._error(
                trace, None, 400, {"error": "body is not valid JSON"}
            )
        trace.add(
            "parse", parse_started, time.perf_counter(), bytes=len(body)
        )
        deadline = Deadline.from_timeout_ms(request.timeout_ms)
        try:
            submission = self.batcher.submit(
                request, trace=trace, deadline=deadline
            )
            if deadline is not None:
                # Hard backstop over the cooperative checks: even a
                # wedged mine thread cannot hold this client's socket
                # past its deadline (plus a grace second for the
                # batcher's own shedding to win the race normally).
                result = await asyncio.wait_for(
                    submission,
                    timeout=max(0.0, deadline.remaining()) + 1.0,
                )
            else:
                result = await submission
        except RequestTooLarge as exc:
            # Permanently too large -- retrying cannot cure this, so it
            # must not look like a 429.  (Raised synchronously by
            # submit, before the request is ever queued.)
            return self._error(trace, request, 413, {"error": str(exc)})
        except ServiceDraining as exc:
            return self._error(
                trace,
                request,
                503,
                {"error": str(exc)},
                keep_alive=False,
            )
        except ServiceOverloaded as exc:
            return self._error(
                trace,
                request,
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                extra_headers=(("Retry-After", str(exc.retry_after)),),
            )
        except (DeadlineExceeded, asyncio.TimeoutError) as exc:
            self._requests_timed_out.inc()
            detail = (
                str(exc)
                if isinstance(exc, DeadlineExceeded) and str(exc)
                else "deadline exceeded"
            )
            return self._error(
                trace,
                request,
                504,
                {"error": detail, "timeout_ms": request.timeout_ms},
            )
        except Exception as exc:  # mining failure: report, keep serving
            return self._error(
                trace, request, 500,
                {"error": f"{type(exc).__name__}: {exc}"},
            )
        serialize_started = time.perf_counter()
        response = response_bytes(
            200,
            result.payload(),
            extra_headers=(("X-Trace-Id", trace.trace_id),),
        )
        trace.add("serialize", serialize_started, time.perf_counter())
        self._finish_request(trace, request, 200)
        return response

    def _error(
        self,
        trace,
        request,
        status: int,
        payload: dict,
        *,
        extra_headers=(),
        keep_alive: bool = True,
    ) -> bytes:
        """Serialize one error outcome, stamping the trace id into it."""
        payload = dict(payload)
        payload["trace_id"] = trace.trace_id
        response = response_bytes(
            status,
            payload,
            extra_headers=(
                ("X-Trace-Id", trace.trace_id),
                *extra_headers,
            ),
            keep_alive=keep_alive,
        )
        self._finish_request(trace, request, status)
        return response

    def _finish_request(self, trace, request, status: int) -> None:
        """Close out one traced request: histograms, rings, sink, log.

        The stage histograms and the access log always happen; whether
        the trace *tree* is kept (rings + sink) is the head-sampling
        decision -- errors and slow requests always, the rest at
        ``trace_sample``.  A kept slow trace additionally gets the
        profiler's per-phase sample counts over its own wall window
        attached before rendering.
        """
        trace.finish()
        stages = trace.stage_seconds()
        for stage, seconds in stages.items():
            self._stage_seconds.labels(stage=stage).observe(seconds)
        total_ms = trace.total_seconds * 1000.0
        if self.sampler.keep(
            trace.trace_id,
            status=status,
            total_ms=total_ms,
            slow_ms=self.traces.slow_ms,
        ):
            if total_ms >= self.traces.slow_ms and self.profiler.running:
                trace.profile = self.profiler.phase_counts(
                    seconds=max(1.0, trace.total_seconds)
                )
            self.traces.record(trace)
            if self.trace_sink is not None:
                self.trace_sink.write(trace.tree())
        self._log.info(
            "access",
            trace_id=trace.trace_id,
            status=status,
            docs=request.docs if request is not None else 0,
            tenant=request.tenant_key if request is not None else None,
            spec=request.spec_hash if request is not None else None,
            queue_ms=round(stages.get("queue_wait", 0.0) * 1000.0, 3),
            mine_ms=round(stages.get("batch_mine", 0.0) * 1000.0, 3),
            total_ms=round(trace.total_seconds * 1000.0, 3),
        )

    def __repr__(self) -> str:
        return (
            f"MiningService(model={self.model!r}, engine={self.engine!r}, "
            f"address={self.address!r})"
        )


class ServiceThread:
    """Run a :class:`MiningService` on a background thread.

    The harness tests, benchmarks and examples use to serve and call
    from the same process: enter the context to get a live service (its
    bound address on :attr:`address`), exit to drain and stop it.

    Examples
    --------
    >>> service = MiningService(BernoulliModel.uniform("ab"))
    >>> with ServiceThread(service) as handle:
    ...     bound_port = handle.address[1]
    >>> bound_port > 0
    True
    """

    def __init__(
        self,
        service: MiningService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        startup_timeout: float = 30.0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.startup_timeout = startup_timeout
        self.address: tuple[str, int] | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._startup_error: BaseException | None = None

    def __enter__(self) -> "ServiceThread":
        """Start the service thread; blocks until the port is bound."""
        started = threading.Event()

        def runner() -> None:
            async def main() -> None:
                self._stop_event = asyncio.Event()
                try:
                    self.address = await self.service.start(
                        self.host, self.port
                    )
                except BaseException as exc:
                    self._startup_error = exc
                    started.set()
                    return
                started.set()
                await self._stop_event.wait()
                await self.service.stop()

            self._loop = asyncio.new_event_loop()
            try:
                self._loop.run_until_complete(main())
            finally:
                self._loop.close()

        self._thread = threading.Thread(
            target=runner, name="repro-service", daemon=True
        )
        self._thread.start()
        if not started.wait(self.startup_timeout):
            raise TimeoutError("service did not start in time")
        if self._startup_error is not None:
            self._thread.join(self.startup_timeout)
            raise self._startup_error
        return self

    def __exit__(self, *exc_info) -> None:
        """Drain and stop the service, then join the thread."""
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(self.startup_timeout)

    def __repr__(self) -> str:
        return f"ServiceThread(address={self.address!r})"
