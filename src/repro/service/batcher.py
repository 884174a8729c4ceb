"""Request micro-batching: many concurrent requests, few kernel calls.

The engine's throughput comes from mining many documents per kernel
``mine_batch`` call -- but a service sees documents one or two at a
time, spread across many concurrent clients.
:class:`MicroBatcher` converts the one into the other:

1. ``submit()`` enqueues a validated
   :class:`~repro.service.protocol.MineRequest` and awaits its result;
   the bounded queue (``max_pending_docs``) gives deterministic
   backpressure -- a request that would overflow it is rejected
   *immediately* with :class:`ServiceOverloaded` (HTTP 429 +
   ``Retry-After``), never silently delayed.
2. A single dispatcher coroutine drains the queue into batches of up to
   ``batch_docs`` documents as soon as its mining lane is idle.  There
   is no timer: requests that arrive while a batch mines queue up and
   form the next batch together, and requests submitted together share
   one batch.
3. Each batch is grouped by the requests' ``(spec, model)`` key and
   mined through **one**
   :meth:`~repro.engine.corpus.CorpusEngine.mine_documents` call on a
   dedicated mining thread (the engine below mines its documents on a
   persistent thread pool over the GIL-free native kernels); the event
   loop stays responsive throughout.
4. Each request's slice of the mined documents is then
   :meth:`~repro.engine.corpus.CorpusEngine.finalize`-d separately --
   calibration and the multiple-testing correction run across *that
   request's* documents only, which is what keeps responses
   bit-identical to a direct ``CorpusEngine.run`` of the same request
   (enforced by ``tests/service/test_service.py``).

Shutdown is graceful by construction: :meth:`close` stops intake, lets
the dispatcher drain everything already queued, and only then returns.
"""

from __future__ import annotations

import asyncio
import collections
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.results import ScanStats
from repro.engine.corpus import CorpusEngine, CorpusResult
from repro.engine.deadline import (
    Deadline,
    DeadlineExceeded,
    reset_active_deadline,
    set_active_deadline,
)
from repro.engine.jobs import MiningJob
from repro.faults import get_faults
from repro.kernels import resolved_backend_name
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Trace
from repro.service import DEFAULT_BATCH_DOCS
from repro.service.protocol import MineRequest

__all__ = [
    "DEFAULT_BATCH_DOCS",
    "MicroBatcher",
    "RequestTooLarge",
    "ServiceDraining",
    "ServiceOverloaded",
]

#: Document-count buckets for the batch-fill histogram (how full each
#: dispatched batch was, in documents).
_FILL_BUCKETS = tuple(float(2**i) for i in range(10))


class RequestTooLarge(ValueError):
    """A single request that can *never* fit ``max_pending_docs``.

    Deliberately not a :class:`ServiceOverloaded`: retrying cannot cure
    it, so the HTTP front-end maps it to 413, not 429.  This is the one
    place the condition and its message live.
    """


class ServiceOverloaded(Exception):
    """The pending queue is full; retry after ``retry_after`` seconds.

    The service front-end maps this to HTTP 429 with a ``Retry-After``
    header.  Raised synchronously at submit time, so an over-capacity
    burst fails fast instead of stacking up latency.
    """

    def __init__(self, message: str, retry_after: int = 1) -> None:
        super().__init__(message)
        #: Suggested client backoff in whole seconds (>= 1).
        self.retry_after = max(1, int(retry_after))


class ServiceDraining(ServiceOverloaded):
    """The service is draining for shutdown; this instance is done.

    A :class:`ServiceOverloaded` subclass (same synchronous-rejection
    contract), but semantically different: retrying *this instance*
    cannot succeed, so the HTTP front-end maps it to 503 with
    ``Connection: close`` instead of 429 + ``Retry-After`` -- a
    load-balancer should move on to another replica.
    """


@dataclass
class _Pending:
    """One queued request: its jobs and the future its client awaits."""

    request: MineRequest
    jobs: list[MiningJob]
    future: asyncio.Future
    queued_at: float = field(default_factory=time.perf_counter)
    #: Request trace to append batching/mining spans to (optional).
    trace: Trace | None = None
    #: The request's end-to-end deadline (``None`` = no limit).  An
    #: expired pending is completed with
    #: :class:`~repro.engine.deadline.DeadlineExceeded` at batch
    #: formation (or after a mine-thread delay) instead of being mined.
    deadline: Deadline | None = None


class MicroBatcher:
    """Coalesce concurrent mine requests into batched engine dispatch.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.corpus.CorpusEngine` to drive.  For a
        service with ``workers > 1`` this is built over a
        :class:`~repro.engine.executors.ThreadExecutor`, so batch after
        batch reuses one thread pool.
    batch_docs:
        Target documents per dispatched batch (a single request larger
        than this still rides in one batch of its own).
    max_pending_docs:
        Bound on queued documents; the backpressure knob.
    tenant_fair_share:
        Fraction of ``max_pending_docs`` a single tenant (requests
        sharing a :attr:`~repro.service.protocol.MineRequest.tenant_key`,
        i.e. a null model) may occupy in the queue, in ``(0, 1]``.  At
        the default ``1.0`` there is no per-tenant bound beyond the
        global one; below it, a burst from one tenant hits a
        deterministic 429 at ``int(max_pending_docs *
        tenant_fair_share)`` queued documents while other tenants'
        requests keep being accepted.  A single request larger than the
        tenant share can never be accepted and raises
        :class:`RequestTooLarge` (413), exactly like one larger than
        ``max_pending_docs``.
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` backing the
        batcher's counters and histograms.  Defaults to a **fresh**
        registry per batcher (not the process default) so that stats
        start at zero for each instance; the service injects its own
        registry to aggregate across components.
    """

    def __init__(
        self,
        engine: CorpusEngine,
        *,
        batch_docs: int | None = None,
        max_pending_docs: int = 1024,
        tenant_fair_share: float = 1.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if batch_docs is None:
            batch_docs = DEFAULT_BATCH_DOCS
        if batch_docs < 1:
            raise ValueError(f"batch_docs must be >= 1, got {batch_docs!r}")
        if max_pending_docs < 1:
            raise ValueError(
                f"max_pending_docs must be >= 1, got {max_pending_docs!r}"
            )
        if not 0.0 < tenant_fair_share <= 1.0:
            raise ValueError(
                f"tenant_fair_share must be in (0, 1], got "
                f"{tenant_fair_share!r}"
            )
        self.engine = engine
        self.batch_docs = batch_docs
        self.max_pending_docs = max_pending_docs
        self.tenant_fair_share = tenant_fair_share
        #: Queued-document bound per tenant key (>= 1 so every tenant
        #: can always queue at least a one-document request).
        self.tenant_cap_docs = max(
            1, int(max_pending_docs * tenant_fair_share)
        )
        self._queue: collections.deque[_Pending] = collections.deque()
        self._queued_docs = 0
        #: Queued documents per tenant key (mirrors ``_queued_docs``;
        #: entries are dropped at zero so the dict tracks only tenants
        #: with work actually waiting).
        self._tenant_docs: dict[str, int] = {}
        self._in_flight_docs = 0
        self._wakeup: asyncio.Event | None = None
        self._task: asyncio.Task | None = None
        self._closing = False
        # One mining lane: batches are serialised here on purpose --
        # parallelism lives *inside* the engine (its thread pool), and a
        # single lane keeps dispatch order deterministic.
        self._mine_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-mine"
        )
        # Counters surfaced by stats() and GET /metrics: registry-backed
        # so /stats and the Prometheus exposition share one source of
        # truth.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._requests_total = self.metrics.counter(
            "repro_batcher_requests_total",
            "Mine requests accepted by the micro-batcher.",
        )
        self._requests_rejected = self.metrics.counter(
            "repro_batcher_requests_rejected_total",
            "Mine requests rejected with backpressure (queue full or closing).",
        )
        # Created at zero so the family renders in /metrics before the
        # first quota rejection.
        self._tenant_rejected_counter = self.metrics.counter(
            "repro_batcher_tenant_rejected_total",
            "Mine requests rejected by the per-tenant fair-share quota.",
        )
        self._docs_total = self.metrics.counter(
            "repro_batcher_docs_total",
            "Documents mined through dispatched batches.",
        )
        self._batches = self.metrics.counter(
            "repro_batcher_batches_total",
            "Batches dispatched to the engine.",
        )
        self._mine_seconds = self.metrics.counter(
            "repro_batcher_mine_seconds_total",
            "Wall seconds spent in batched mining passes.",
        )
        self._mine_histogram = self.metrics.histogram(
            "repro_batch_mine_seconds",
            "Wall seconds per dispatched batch mining pass.",
        )
        self._fill_histogram = self.metrics.histogram(
            "repro_batch_fill_docs",
            "Documents per dispatched batch.",
            buckets=_FILL_BUCKETS,
        )
        self._queue_wait_histogram = self.metrics.histogram(
            "repro_batch_queue_wait_seconds",
            "Seconds a request waited queued before its batch started.",
        )

    # ------------------------------------------------------------------
    # Registry-backed counter views (read-only: counters only go up)
    # ------------------------------------------------------------------

    @property
    def requests_total(self) -> int:
        """Requests accepted (registry-backed)."""
        return int(self._requests_total.value)

    @property
    def requests_rejected(self) -> int:
        """Requests rejected with backpressure (registry-backed)."""
        return int(self._requests_rejected.value)

    @property
    def tenant_rejected(self) -> int:
        """Requests rejected by the per-tenant quota (registry-backed)."""
        return int(self._tenant_rejected_counter.value)

    @property
    def docs_total(self) -> int:
        """Documents mined through batches (registry-backed)."""
        return int(self._docs_total.value)

    @property
    def batches(self) -> int:
        """Batches dispatched (registry-backed)."""
        return int(self._batches.value)

    @property
    def mine_seconds(self) -> float:
        """Wall seconds spent mining (registry-backed)."""
        return self._mine_seconds.value

    async def start(self) -> None:
        """Start the dispatcher coroutine (idempotent).

        A batcher that has been :meth:`close`-d stays closed -- build a
        new one rather than restarting it.
        """
        if self._task is None and not self._closing:
            self._wakeup = asyncio.Event()
            self._task = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has begun; a closed batcher never
        accepts again (build a new one)."""
        return self._closing

    @property
    def queue_depth_docs(self) -> int:
        """Documents currently queued (excludes the in-flight batch)."""
        return self._queued_docs

    @property
    def in_flight_docs(self) -> int:
        """Documents in the batch currently being mined."""
        return self._in_flight_docs

    def docs_per_second(self) -> float:
        """Measured mining throughput (0.0 until the first batch lands)."""
        if self.mine_seconds <= 0.0:
            return 0.0
        return self.docs_total / self.mine_seconds

    def retry_after_hint(self) -> int:
        """Deterministic backoff hint: queue depth over throughput.

        Falls back to 1 second before any throughput has been measured;
        clamped to [1, 60].
        """
        rate = self.docs_per_second()
        backlog = self._queued_docs + self._in_flight_docs
        if rate <= 0.0 or backlog <= 0:
            return 1
        return max(1, min(60, math.ceil(backlog / rate)))

    async def submit(
        self,
        request: MineRequest,
        *,
        trace: Trace | None = None,
        deadline: Deadline | None = None,
    ) -> CorpusResult:
        """Enqueue a request and await its :class:`CorpusResult`.

        Raises :class:`ServiceOverloaded` immediately when accepting the
        request would push the queued-document count past
        ``max_pending_docs``, and :class:`ServiceDraining` (a subclass)
        when the batcher is shutting down.  A single request larger
        than ``max_pending_docs`` can *never* be accepted, so it raises
        :class:`RequestTooLarge` instead -- retrying it would loop
        forever (the HTTP front-end maps this to 413).

        A ``deadline`` already expired at admission raises
        :class:`~repro.engine.deadline.DeadlineExceeded` without
        queueing; one that expires while queued completes the request
        with the same error at batch formation, never mining it --
        timeouts are not backpressure, so neither path touches the
        rejected counter.

        When a :class:`~repro.obs.tracing.Trace` is supplied, the
        batcher appends queue-wait, batch-mine (with a kernel child) and
        finalize spans to it as the request moves through the pipeline.
        """
        if request.docs > self.max_pending_docs:
            raise RequestTooLarge(
                f"request carries {request.docs} documents but the service "
                f"accepts at most {self.max_pending_docs} queued documents; "
                f"split the request"
            )
        if request.docs > self.tenant_cap_docs:
            # Permanently over the tenant's share: the quota is static,
            # so retrying can never cure this either -- 413, not 429.
            raise RequestTooLarge(
                f"request carries {request.docs} documents but a single "
                f"tenant may occupy at most {self.tenant_cap_docs} queued "
                f"documents (fair share {self.tenant_fair_share} of "
                f"{self.max_pending_docs}); split the request"
            )
        if self._closing:
            self._requests_rejected.inc()
            raise ServiceDraining("service is draining for shutdown")
        if deadline is not None and deadline.expired():
            raise DeadlineExceeded("deadline expired before admission")
        if self._task is None:
            await self.start()
        if self._queued_docs + request.docs > self.max_pending_docs:
            self._requests_rejected.inc()
            raise ServiceOverloaded(
                f"pending queue is full ({self._queued_docs} of "
                f"{self.max_pending_docs} documents queued)",
                retry_after=self.retry_after_hint(),
            )
        tenant = request.tenant_key
        tenant_queued = self._tenant_docs.get(tenant, 0)
        if tenant_queued + request.docs > self.tenant_cap_docs:
            # Deterministic fair-share 429: this tenant is hogging the
            # queue, but capacity remains for everyone else -- their
            # submissions are untouched by this rejection.
            self._requests_rejected.inc()
            self._tenant_rejected_counter.inc()
            raise ServiceOverloaded(
                f"tenant {tenant} has {tenant_queued} of its "
                f"{self.tenant_cap_docs}-document fair share queued "
                f"(share {self.tenant_fair_share} of "
                f"{self.max_pending_docs})",
                retry_after=self.retry_after_hint(),
            )
        self._tenant_docs[tenant] = tenant_queued + request.docs
        self._requests_total.inc()
        pending = _Pending(
            request=request,
            jobs=request.jobs(),
            future=asyncio.get_running_loop().create_future(),
            trace=trace,
            deadline=deadline,
        )
        self._queue.append(pending)
        self._queued_docs += request.docs
        self._wakeup.set()
        return await pending.future

    async def close(self) -> None:
        """Graceful drain: stop intake, mine everything queued, stop.

        Every already-accepted request still gets its result (or its
        error); only *new* submissions are rejected while draining.
        """
        self._closing = True
        if self._task is not None:
            self._wakeup.set()
            await self._task
            self._task = None
        self._mine_pool.shutdown(wait=True)

    def stats(self) -> dict:
        """JSON-ready batching metrics (the ``/stats`` payload core)."""
        return {
            "requests_total": self.requests_total,
            "requests_rejected": self.requests_rejected,
            "tenant_rejected": self.tenant_rejected,
            "docs_total": self.docs_total,
            "batches": self.batches,
            "batch_fill": (
                self.docs_total / self.batches if self.batches else 0.0
            ),
            "batch_docs": self.batch_docs,
            "max_pending_docs": self.max_pending_docs,
            "tenant_fair_share": self.tenant_fair_share,
            "tenant_cap_docs": self.tenant_cap_docs,
            "tenants_queued": len(self._tenant_docs),
            "queue_depth_docs": self._queued_docs,
            "in_flight_docs": self._in_flight_docs,
            "mine_seconds": self.mine_seconds,
            "docs_per_second": self.docs_per_second(),
        }

    # ------------------------------------------------------------------
    # Dispatcher internals.
    # ------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Drain the queue into batches until closed *and* empty.

        A batch is taken as soon as the lane is idle: whatever queued
        while the previous batch mined rides together in the next.
        """
        loop = asyncio.get_running_loop()
        while True:
            while not self._queue and not self._closing:
                self._wakeup.clear()
                await self._wakeup.wait()
            if not self._queue:
                return  # closing and drained
            batch = self._take_batch()
            if batch:
                await self._run_batch(loop, batch)

    def _take_batch(self) -> list[_Pending]:
        """Pop requests until the batch reaches ``batch_docs`` documents.

        Always takes at least one live request, so an oversized request
        rides in a batch of its own rather than deadlocking.  Requests
        whose deadline passed while queued are *shed* on the way: popped
        and completed with
        :class:`~repro.engine.deadline.DeadlineExceeded` instead of
        occupying batch capacity (their batchmates stay bit-identical --
        mining is batch-composition-invariant).  May return an empty
        batch when everything at hand had expired.
        """
        batch: list[_Pending] = []
        docs = 0
        while self._queue:
            head = self._queue[0]
            if head.deadline is not None and head.deadline.expired():
                self._queue.popleft()
                self._queued_docs -= head.request.docs
                self._release_tenant(head.request)
                self._shed(head)
                continue
            head_docs = head.request.docs
            if batch and docs + head_docs > self.batch_docs:
                break
            pending = self._queue.popleft()
            docs += head_docs
            self._release_tenant(pending.request)
            batch.append(pending)
        self._queued_docs -= docs
        self._in_flight_docs = docs
        return batch

    def _release_tenant(self, request: MineRequest) -> None:
        """Return a dequeued request's documents to its tenant's share."""
        tenant = request.tenant_key
        remaining = self._tenant_docs.get(tenant, 0) - request.docs
        if remaining > 0:
            self._tenant_docs[tenant] = remaining
        else:
            self._tenant_docs.pop(tenant, None)

    def _shed(self, pending: _Pending) -> None:
        """Complete an expired request with ``DeadlineExceeded``."""
        if not pending.future.done():
            pending.future.set_exception(
                DeadlineExceeded("deadline expired while queued")
            )

    async def _run_batch(self, loop, batch: list[_Pending]) -> None:
        """Mine *and finalize* one batch off-loop; resolve each request.

        Finalize runs on the same mining thread as the mining pass --
        it can trigger a cold Monte-Carlo calibration simulation (plus
        a disk write, for :class:`~repro.service.store.
        DiskCalibrationCache`), which must never stall the event loop.
        """
        # Order requests so equal (spec, model) keys are consecutive:
        # mine_documents groups consecutive jobs into one kernel call.
        groups: dict[object, list[_Pending]] = {}
        for pending in batch:
            key = (pending.request.spec, pending.request.model)
            groups.setdefault(key, []).append(pending)
        ordered = [pending for group in groups.values() for pending in group]

        def mine_and_finalize():
            # Fault site: stall the mine thread before any work -- long
            # enough, in chaos tests, for queued deadlines to pass.
            faults = get_faults()
            if faults.should_fire("mine_delay_ms"):
                time.sleep(faults.param("mine_delay_ms") / 1000.0)
            # Deadlines are re-checked here, on the mine thread, because
            # time passed since batch formation: expired members are
            # completed with DeadlineExceeded instead of mined, and
            # batch-composition invariance keeps the survivors'
            # results bit-identical either way.
            alive: list[_Pending] = []
            outcomes = []
            for pending in ordered:
                if pending.deadline is not None and pending.deadline.expired():
                    outcomes.append((
                        pending,
                        DeadlineExceeded("deadline expired before mining"),
                        True,
                    ))
                else:
                    alive.append(pending)
            jobs = [job for pending in alive for job in pending.jobs]
            # The executor may shed the whole run only once *every*
            # member is past due, so the tunnelled batch deadline is the
            # latest member deadline -- and absent entirely while any
            # member has no limit.
            batch_deadline = None
            if alive and all(p.deadline is not None for p in alive):
                batch_deadline = Deadline(
                    expires_at=max(p.deadline.expires_at for p in alive)
                )
            started = time.perf_counter()
            # Tunnel the batch deadline to the executor through a
            # contextvar: mine_documents keeps its signature (test fakes
            # override it), yet an expired batch stops mining before
            # its remaining documents.
            deadline_token = (
                set_active_deadline(batch_deadline)
                if batch_deadline is not None
                else None
            )
            try:
                documents = self.engine.mine_documents(jobs) if jobs else []
            except DeadlineExceeded as exc:
                # Every member was past due (the batch deadline is the
                # max); 504 them all rather than mining into the void.
                outcomes.extend((pending, exc, True) for pending in alive)
                return time.perf_counter() - started, 0, outcomes
            finally:
                if deadline_token is not None:
                    reset_active_deadline(deadline_token)
            mine_done = time.perf_counter()
            mine_elapsed = mine_done - started
            if jobs:
                self._mine_histogram.observe(mine_elapsed)
                self._fill_histogram.observe(float(len(jobs)))
            cursor = 0
            for pending in alive:
                docs = pending.request.docs
                slice_docs = documents[cursor : cursor + docs]
                cursor += docs
                self._queue_wait_histogram.observe(
                    max(0.0, started - pending.queued_at)
                )
                if pending.trace is not None:
                    self._record_spans(pending, slice_docs, started, mine_done)
                finalize_started = time.perf_counter()
                try:
                    result = self.engine.finalize(
                        pending.jobs,
                        slice_docs,
                        correction=pending.request.correction,
                        alpha=pending.request.alpha,
                        elapsed=mine_elapsed * (docs / len(jobs)),
                    )
                except Exception as exc:
                    outcomes.append((pending, exc, True))
                else:
                    outcomes.append((pending, result, False))
                if pending.trace is not None:
                    pending.trace.add(
                        "finalize", finalize_started, time.perf_counter()
                    )
            return mine_elapsed, len(jobs), outcomes

        try:
            elapsed, mined_docs, outcomes = await loop.run_in_executor(
                self._mine_pool, mine_and_finalize
            )
        except Exception as exc:
            self._resolve_all(ordered, exc)
            self._in_flight_docs = 0
            return
        if mined_docs:
            self._batches.inc()
            self._docs_total.inc(mined_docs)
            self._mine_seconds.inc(elapsed)
        for pending, outcome, failed in outcomes:
            if pending.future.done():  # client gone; nothing to deliver
                continue
            if failed:
                pending.future.set_exception(outcome)
            else:
                pending.future.set_result(outcome)
        self._in_flight_docs = 0

    def _record_spans(
        self, pending: _Pending, slice_docs, started, mine_done
    ) -> None:
        """Append batching spans for one request to its trace.

        ``queue_wait`` and ``batch_mine`` are measured directly; the
        ``kernel`` child is synthesised from the request's per-document
        scan times (its position inside ``batch_mine`` is approximate,
        its duration measured, and clipped to ``batch_mine`` when
        threads mined documents side by side).  It carries the paper's
        counts for the request's documents: ``symbols`` (the sum of n),
        X² ``evaluated`` and chain-cover ``skipped``, and the ``backend``
        that resolved to serve them.
        """
        trace = pending.trace
        trace.add(
            "queue_wait",
            min(pending.queued_at, started),
            started,
            docs=pending.request.docs,
        )
        trace.add(
            "batch_mine",
            started,
            mine_done,
            batch_docs=len(slice_docs),
        )
        stats = ScanStats.merged(document.stats for document in slice_docs)
        if stats.elapsed_seconds > 0.0:
            trace.add(
                "kernel",
                started,
                min(mine_done, started + stats.elapsed_seconds),
                parent="batch_mine",
                docs=len(slice_docs),
                symbols=stats.n,
                evaluated=stats.substrings_evaluated,
                skipped=stats.positions_skipped,
                backend=resolved_backend_name(pending.request.spec.backend),
            )

    def _resolve_all(self, batch: list[_Pending], exc: Exception) -> None:
        """Fail every request of a batch whose mining pass blew up."""
        for pending in batch:
            if not pending.future.done():
                pending.future.set_exception(exc)

    def __repr__(self) -> str:
        return (
            f"MicroBatcher(batch_docs={self.batch_docs}, "
            f"max_pending_docs={self.max_pending_docs}, "
            f"queued_docs={self._queued_docs})"
        )
