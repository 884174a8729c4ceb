"""repro.service: the async mining service over the corpus engine.

The ROADMAP's heavy-traffic scenario, made concrete: a long-running
process that serves mine requests over JSON/HTTP (stdlib asyncio only)
while keeping every per-invocation cost warm across requests.

* :mod:`repro.service.app` -- :class:`MiningService`, the asyncio
  front-end (``POST /mine``, ``GET /healthz``, ``GET /stats``), and
  :class:`ServiceThread`, the in-process harness tests/benchmarks use.
* :mod:`repro.service.batcher` -- :class:`MicroBatcher`: coalesces
  concurrent requests into ``batch_docs``-sized groups keyed by
  ``(spec, model)``, drives them through one
  :meth:`~repro.engine.corpus.CorpusEngine.mine_documents` call each,
  and finalizes each request's slice separately (responses stay
  bit-identical to a direct ``CorpusEngine.run``).  Bounded queues give
  deterministic 429 + ``Retry-After`` backpressure
  (:class:`ServiceOverloaded`).
* :mod:`repro.service.store` -- :class:`DiskCalibrationCache`: the
  calibration cache with a versioned, fingerprint-checked on-disk tier,
  so a warm restart serves its first calibrated request with zero
  Monte-Carlo trials.
* :mod:`repro.service.protocol` -- the request schema
  (:class:`MineRequest`, :func:`parse_mine_request`) and the minimal
  HTTP framing: one message reader for requests and responses.
* :mod:`repro.service.frontdoor` -- the HTTP lifecycle (connection
  loop, endpoint table, drain, request counts) that
  :class:`MiningService` and the router's ``RouterService`` share.
* :mod:`repro.service.client` -- :class:`ServiceClient`, the blocking
  stdlib client.

The CLI front-end is ``repro-mss serve`` (see :mod:`repro.cli`); the
request -> batcher -> mining threads -> finalize data flow is documented in
``docs/ARCHITECTURE.md``.
"""

from repro.service.app import MiningService, ServiceThread
from repro.service.batcher import (
    MicroBatcher,
    RequestTooLarge,
    ServiceDraining,
    ServiceOverloaded,
)
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceOverloadedError,
)
from repro.service.protocol import (
    MineRequest,
    ProtocolError,
    parse_mine_request,
)
from repro.service.store import DiskCalibrationCache, default_cache_dir

__all__ = [
    "MiningService",
    "ServiceThread",
    "MicroBatcher",
    "RequestTooLarge",
    "ServiceDraining",
    "ServiceOverloaded",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloadedError",
    "MineRequest",
    "ProtocolError",
    "parse_mine_request",
    "DiskCalibrationCache",
    "default_cache_dir",
]
