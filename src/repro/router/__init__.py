"""Horizontal scale-out: route mining traffic across shard processes.

One :class:`~repro.service.app.MiningService` saturates at one host's
mining threads; this package is the ROADMAP's next step -- a reverse proxy that
makes N such processes look like one, while keeping every response
bit-identical to a single service (and to a direct
:meth:`~repro.engine.corpus.CorpusEngine.run`):

* :mod:`repro.router.ring` -- consistent hashing of ``(spec, model)``
  routing keys onto shards, so micro-batches keep coalescing.
* :mod:`repro.router.manager` -- spawn/signal/reap owned
  ``repro-mss serve`` child processes.
* :mod:`repro.router.app` -- the asyncio proxy: health ejection,
  single idempotent retry under the request's deadline, aggregated
  ``/metrics`` + ``/stats``, ordered shard-by-shard drain.

Start a fleet with ``repro-mss route --shards 4 --alphabet ab``, or
front existing services with ``--upstream host:port,host:port``.
"""

from repro.router.app import RouterService, ShardState
from repro.router.manager import ShardProcess, ShardStartupError
from repro.router.ring import DEFAULT_REPLICAS, HashRing, routing_key

__all__ = [
    "DEFAULT_REPLICAS",
    "HashRing",
    "RouterService",
    "ShardProcess",
    "ShardStartupError",
    "ShardState",
    "routing_key",
]
