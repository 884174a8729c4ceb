"""Consistent hashing for shard affinity: the router's placement brain.

The micro-batcher coalesces requests that agree on ``(spec, model)``
into one kernel dispatch -- that is where the service's throughput
comes from (see :mod:`repro.service.batcher`).  A router that sprayed
requests round-robin would shatter those batches across shards and
serve N processes at single-request occupancy.  :class:`HashRing`
instead pins each routing key -- a stable hash of the request's model
and job-spec fields, :func:`routing_key` -- to one shard, so identical
workloads keep coalescing *inside* their shard while distinct
workloads spread across the fleet.

Why a *ring* rather than ``hash(key) % N``: shards come and go (health
ejection, scale-up, kill -9 in the chaos tests).  With modular
hashing, changing N remaps nearly every key; with consistent hashing,
adding or removing one shard moves only that shard's arc of keys
(~``1/N`` of the space) and every other placement is untouched -- so
an ejection does not cold-start the *surviving* shards' batches.

Balance: each shard is planted at :data:`DEFAULT_REPLICAS` (128)
pseudo-random points ("virtual nodes") derived from
``sha256(name#i)``.  With >= 64 virtual nodes per shard, each shard's
share of a large key population lands within a factor of **2** of the
fair share ``1/N`` -- the bound the property tests in
``tests/router/test_ring.py`` enforce.  Lookups are
``O(log(N * replicas))`` via :mod:`bisect`.

Determinism: placement depends only on the *set* of node names and
``replicas`` -- never on insertion order or process identity -- so
independently rebuilt rings (a restarted router, a second router
replica) route identically.
"""

from __future__ import annotations

import bisect
import hashlib
import json

__all__ = ["DEFAULT_REPLICAS", "HashRing", "routing_key"]

#: Virtual nodes per shard.  128 keeps the worst shard within ~2x of
#: the fair share (empirically ~1.3x at N <= 8) for a few microseconds
#: of rebuild time; the balance property test pins the factor-2 bound.
DEFAULT_REPLICAS = 128

#: Request fields that determine batch affinity: the model pair plus
#: the JobSpec fields of :data:`repro.service.protocol._SPEC_FIELDS`.
#: ``correction``/``alpha`` are deliberately absent -- the batcher
#: coalesces across them, so the ring must too.
_KEY_FIELDS = (
    "alphabet",
    "probs",
    "problem",
    "t",
    "threshold",
    "min_length",
    "limit",
    "backend",
)

#: ``routing_key``'s default: decode the body itself.
_UNDECODED = object()


def routing_key(body: bytes, payload: object = _UNDECODED) -> str:
    """The shard-affinity key for one ``POST /mine`` body.

    Hashes exactly the fields that form the micro-batcher's coalescing
    key -- the null model (``alphabet``/``probs``; both absent means
    "the service default model", which is also a stable value) and the
    job-spec fields -- so requests that could share a shard's kernel
    batch hash identically, and the documents themselves (which never
    affect batching) do not perturb placement.  The router calls this
    on the *raw* body: full request validation stays on the shards,
    where a 400 is produced once instead of twice.  A caller that has
    already decoded the body passes the result as ``payload`` (``None``
    when it did not decode), so the body is decoded once.

    Unparseable bodies hash as raw bytes: they still route (to a
    stable, arbitrary shard) and come back as that shard's 400, so
    error responses originate from the same code path as every other
    response.

    >>> a = routing_key(b'{"text": "abab", "alphabet": "ab"}')
    >>> b = routing_key(b'{"text": "bbbb", "alphabet": "ab"}')
    >>> a == b  # same model + spec => same shard, documents differ
    True
    >>> routing_key(b'{"text": "abab", "alphabet": "abc"}') == a
    False
    >>> routing_key(b"[" * 100000) == routing_key(b"[" * 100000, None)
    True
    """
    if payload is _UNDECODED:
        try:
            payload = json.loads(body)
        except (ValueError, RecursionError):
            payload = None
    if isinstance(payload, dict):
        fields = {
            name: payload[name]
            for name in _KEY_FIELDS
            if payload.get(name) is not None
        }
        try:
            canonical = json.dumps(
                fields, sort_keys=True, separators=(",", ":"), default=str
            )
        except RecursionError:
            # A key field nested about as deep as the recursion limit:
            # decoded a frame shallower than this, it need not encode.
            pass
        else:
            return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return hashlib.sha256(b"raw:" + body).hexdigest()


def _point(label: str) -> int:
    """A 64-bit position on the ring for one virtual-node label."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent-hash placement of routing keys onto named shards.

    Parameters
    ----------
    nodes:
        Initial shard names (any strings; the router uses ``"shard-i"``).
    replicas:
        Virtual nodes per shard -- see :data:`DEFAULT_REPLICAS`.

    Examples
    --------
    >>> ring = HashRing(["shard-0", "shard-1"])
    >>> owner = ring.node_for("some-key")
    >>> owner in {"shard-0", "shard-1"}
    True
    >>> ring.node_for("some-key") == owner  # stable
    True
    """

    def __init__(self, nodes=(), replicas: int = DEFAULT_REPLICAS) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas!r}")
        self.replicas = replicas
        self._nodes: set[str] = set()
        self._points: list[int] = []
        self._owners: dict[int, str] = {}
        for node in nodes:
            self.add(node)

    @property
    def nodes(self) -> frozenset[str]:
        """The current node names (placement set, unordered)."""
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        """Plant ``node`` at its ``replicas`` ring positions (idempotent).

        In the astronomically unlikely event of a 64-bit point
        collision between two nodes, the lexicographically smaller
        name wins deterministically -- both routers in a pair would
        still agree.
        """
        if node in self._nodes:
            return
        self._nodes.add(node)
        for i in range(self.replicas):
            point = _point(f"{node}#{i}")
            current = self._owners.get(point)
            if current is None:
                bisect.insort(self._points, point)
                self._owners[point] = node
            elif node < current:  # pragma: no cover - 2^-64 event
                self._owners[point] = node

    def remove(self, node: str) -> None:
        """Withdraw ``node``; its arcs fall to their ring successors."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        dropped = {
            point
            for point, owner in self._owners.items()
            if owner == node
        }
        self._points = [p for p in self._points if p not in dropped]
        for point in dropped:
            del self._owners[point]

    def node_for(self, key: str) -> str:
        """The shard owning ``key``: first virtual node at or after its
        point, wrapping at the top of the ring.

        Raises :class:`LookupError` when the ring is empty (every
        shard ejected) -- the router maps that to a 503.
        """
        if not self._points:
            raise LookupError("hash ring is empty: no healthy shards")
        point = _point(f"key:{key}")
        index = bisect.bisect_left(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[self._points[index]]

    def preference(self, key: str, limit: int | None = None) -> list[str]:
        """Distinct nodes in ring order from ``key``'s point.

        ``preference(key)[0] == node_for(key)``; the tail is the
        deterministic failover order the router walks when the owner
        is unreachable -- every router replica computes the same list,
        so retries also coalesce.
        """
        if not self._points:
            return []
        if limit is None:
            limit = len(self._nodes)
        point = _point(f"key:{key}")
        start = bisect.bisect_left(self._points, point)
        ordered: list[str] = []
        seen: set[str] = set()
        for offset in range(len(self._points)):
            owner = self._owners[
                self._points[(start + offset) % len(self._points)]
            ]
            if owner not in seen:
                seen.add(owner)
                ordered.append(owner)
                if len(ordered) >= limit:
                    break
        return ordered

    def __repr__(self) -> str:
        return (
            f"HashRing(nodes={sorted(self._nodes)!r}, "
            f"replicas={self.replicas})"
        )
