"""Deterministic fault injection for chaos testing the serving stack.

A :class:`FaultRegistry` holds a small set of *named fault sites* that
production code queries at well-chosen points -- the batcher thread
about to call the engine, the disk calibration cache about to trust a
file it just read.  Faults are configured from the environment::

    REPRO_FAULTS=mine_delay_ms:200,disk_cache_corrupt:0.5

Each comma-separated entry is ``name`` (fire always) or ``name:value``.
For probabilistic sites the value is a firing probability in ``[0, 1]``;
for parameterised ``*_ms`` sites it is the parameter itself (a delay in
milliseconds) and the site fires whenever the parameter is positive.

Draws are **deterministic**: each site keeps a monotone counter, and the
``n``-th query of site ``s`` fires iff
``sha256(f"{seed}:{s}:{n}")`` (as a fraction of 2**64) is below the
configured probability.  Re-running the same process with the same
``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED`` therefore replays the exact
same fault schedule -- chaos tests assert on outcomes, not on luck.

The registry is intentionally tiny and dependency-free: it is imported
by the batcher thread and the disk cache, and a spawned ``serve``
process (a router shard) re-parses its inherited environment on first
use.

Examples
--------
>>> registry = FaultRegistry.from_spec("mine_delay_ms:250", seed=7)
>>> registry.param("mine_delay_ms")
250.0
>>> registry.should_fire("disk_cache_corrupt")
False
"""

from __future__ import annotations

import hashlib
import os
import threading

__all__ = [
    "KNOWN_FAULTS",
    "FaultRegistry",
    "configure_faults",
    "get_faults",
    "reset_faults",
]

#: Environment variables consulted by :func:`get_faults`.
FAULTS_ENV = "REPRO_FAULTS"
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"

#: Every fault site production code queries.  An unknown name in
#: ``REPRO_FAULTS`` is a configuration typo and raises immediately.
KNOWN_FAULTS = frozenset(
    {
        # The batcher's mine thread sleeps this many milliseconds before
        # mining a batch -- exercises deadline expiry while queued.
        "mine_delay_ms",
        # DiskCalibrationCache treats a freshly read entry as corrupt --
        # exercises quarantine-and-resimulate.
        "disk_cache_corrupt",
    }
)

#: Sites whose configured value is a parameter (milliseconds), not a
#: probability; they fire whenever the parameter is positive.
_PARAM_FAULTS = frozenset({name for name in KNOWN_FAULTS if name.endswith("_ms")})


def _draw(seed: int, site: str, count: int) -> float:
    """The deterministic uniform draw in ``[0, 1)`` for one query."""
    digest = hashlib.sha256(f"{seed}:{site}:{count}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class FaultRegistry:
    """A parsed, seeded set of fault sites (see module docstring).

    Thread-safe: sites keep per-site draw counters behind one lock, so
    concurrent queries from the batcher thread and the asyncio loop
    still consume draws in a serialised (hence reproducible, given a
    deterministic query order) sequence.

    Examples
    --------
    >>> faults = FaultRegistry.from_spec("disk_cache_corrupt:1.0")
    >>> faults.should_fire("disk_cache_corrupt")
    True
    >>> faults.fired("disk_cache_corrupt")
    1
    """

    def __init__(
        self, sites: dict[str, float] | None = None, *, seed: int = 0
    ) -> None:
        sites = dict(sites or {})
        unknown = set(sites) - KNOWN_FAULTS
        if unknown:
            raise ValueError(
                f"unknown fault site(s) {sorted(unknown)}; "
                f"known: {sorted(KNOWN_FAULTS)}"
            )
        self.sites = sites
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._fired: dict[str, int] = {}

    @classmethod
    def from_spec(cls, spec: str, *, seed: int = 0) -> "FaultRegistry":
        """Parse a ``REPRO_FAULTS``-style spec string.

        >>> FaultRegistry.from_spec("disk_cache_corrupt:0.5,mine_delay_ms:200").sites
        {'disk_cache_corrupt': 0.5, 'mine_delay_ms': 200.0}
        """
        sites: dict[str, float] = {}
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            name, _, raw = entry.partition(":")
            name = name.strip()
            if raw:
                try:
                    value = float(raw)
                except ValueError:
                    raise ValueError(
                        f"fault {name!r} has non-numeric value {raw!r}"
                    ) from None
            else:
                value = 1.0
            if name not in _PARAM_FAULTS and not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"fault {name!r} probability must be in [0, 1], "
                    f"got {value!r}"
                )
            sites[name] = value
        return cls(sites, seed=seed)

    def enabled(self, site: str) -> bool:
        """Whether ``site`` is configured at all (draws nothing)."""
        return site in self.sites

    def param(self, site: str, default: float = 0.0) -> float:
        """The configured value for ``site`` (e.g. a delay in ms)."""
        return self.sites.get(site, default)

    def should_fire(self, site: str) -> bool:
        """Consume one deterministic draw for ``site``.

        Parameterised ``*_ms`` sites fire whenever their value is
        positive; probabilistic sites fire when the seeded draw lands
        below the configured probability.  Unconfigured sites never
        fire and never consume a draw.
        """
        if site not in KNOWN_FAULTS:
            raise ValueError(f"unknown fault site {site!r}")
        value = self.sites.get(site)
        if value is None:
            return False
        with self._lock:
            count = self._counts.get(site, 0)
            self._counts[site] = count + 1
            if site in _PARAM_FAULTS:
                fire = value > 0
            else:
                fire = _draw(self.seed, site, count) < value
            if fire:
                self._fired[site] = self._fired.get(site, 0) + 1
        return fire

    def fired(self, site: str) -> int:
        """How many times ``site`` has fired in this registry."""
        with self._lock:
            return self._fired.get(site, 0)

    def __repr__(self) -> str:
        return f"FaultRegistry(sites={self.sites!r}, seed={self.seed})"


_EMPTY = FaultRegistry()

_STATE_LOCK = threading.Lock()
#: (spec, seed) strings the cached registry was built from, or the
#: sentinel ``"<configured>"`` after :func:`configure_faults`.
_cached_key: tuple[str, str] | None = None
_cached: FaultRegistry = _EMPTY
_configured: FaultRegistry | None = None


def get_faults() -> FaultRegistry:
    """The process-wide fault registry.

    Returns the registry installed by :func:`configure_faults` if any;
    otherwise parses ``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED`` from the
    environment, caching the result until either string changes.  The
    env path is what lets spawned ``serve`` processes (which inherit
    ``os.environ``) see the faults their launcher set, and what makes
    ``monkeypatch.setenv`` in tests take effect without plumbing.
    """
    global _cached_key, _cached
    if _configured is not None:
        return _configured
    spec = os.environ.get(FAULTS_ENV, "")
    seed = os.environ.get(FAULTS_SEED_ENV, "0")
    key = (spec, seed)
    with _STATE_LOCK:
        if _configured is not None:
            return _configured
        if key != _cached_key:
            if spec:
                try:
                    seed_value = int(seed)
                except ValueError:
                    seed_value = 0
                _cached = FaultRegistry.from_spec(spec, seed=seed_value)
            else:
                _cached = _EMPTY
            _cached_key = key
        return _cached


def configure_faults(registry: FaultRegistry | None) -> None:
    """Install ``registry`` as the process-wide faults (tests, CLI).

    ``configure_faults(None)`` is equivalent to :func:`reset_faults`.
    An explicitly configured registry wins over the environment until
    reset -- but note it does *not* reach spawned processes; use the
    env vars for faults that must fire inside a router's shards.
    """
    global _configured
    with _STATE_LOCK:
        _configured = registry


def reset_faults() -> None:
    """Drop any configured registry and the env-parse cache."""
    global _configured, _cached_key, _cached
    with _STATE_LOCK:
        _configured = None
        _cached_key = None
        _cached = _EMPTY
