"""Shared Monte-Carlo calibration for corpus runs.

A single document's X²max is the maximum of O(n²) dependent chi-square
variables, so its family-wise p-value needs the Monte-Carlo null
distribution of :mod:`repro.analysis.calibration`.  Simulating that
distribution costs ``trials`` full MSS scans -- far too much to pay per
document.  Two observations make it affordable at corpus scale:

1. The distribution depends only on ``(model, n)``, and corpora share one
   model, so documents of similar length can share one simulation.
2. The distribution varies slowly with ``n`` (the mean grows like
   ``2 ln n``), so *bucketing* lengths to the next power of two changes
   p-values marginally while collapsing thousands of lengths onto a
   handful of keys.

:class:`CalibrationCache` implements exactly that: one
:class:`~repro.analysis.calibration.MSSNullDistribution` per
``(model, length_bucket(n))`` key, computed on first request and reused
for every later document -- across threads too (a lock guards the dict).
The cache lives in the engine's process and mining threads share it, so
the expensive simulation is never duplicated across them.

Bucketing is conservative in the useful direction: the bucket length is
``>= n``, X²max grows stochastically with ``n``, so bucketed p-values are
(weakly) larger -- calibrated significance is never overstated.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from typing import Iterator

from repro._validation import ensure_positive_int
from repro.analysis.calibration import MSSNullDistribution, mss_null_distribution
from repro.core.model import BernoulliModel
from repro.obs.log import get_logger
from repro.obs.metrics import default_registry

__all__ = [
    "length_bucket",
    "model_fingerprint",
    "CalibrationCache",
    "SCHEMA_VERSION",
]

#: Smallest bucket: documents shorter than this share one simulation.
_MIN_BUCKET = 64

#: On-disk schema version of persisted calibration samples.  Bump it
#: whenever the sample semantics change (RNG stream, bucketing rule,
#: estimator) -- persisted files from other versions are rejected, never
#: silently reused.
SCHEMA_VERSION = 1

_LOG = get_logger("repro.engine.calibration")


def model_fingerprint(model: BernoulliModel, trials: int, seed: int) -> str:
    """Content hash identifying one calibration configuration.

    Two configurations share a fingerprint exactly when they would
    produce bit-identical Monte-Carlo samples: same schema version, same
    alphabet (order matters -- it fixes symbol codes), same
    probabilities, same trial count, same base seed.  This is the key
    that makes persisted samples safe to reuse: a cache never accepts
    samples whose fingerprint it cannot reproduce from its own
    parameters.

    Only models over string symbols can be fingerprinted (persistence is
    JSON); anything else raises ``TypeError``.

    >>> model = BernoulliModel.uniform("ab")
    >>> model_fingerprint(model, 100, 0) == model_fingerprint(model, 100, 0)
    True
    >>> model_fingerprint(model, 100, 0) == model_fingerprint(model, 200, 0)
    False
    """
    alphabet = list(model.alphabet)
    if not all(isinstance(symbol, str) for symbol in alphabet):
        raise TypeError(
            "calibration persistence requires string symbols; got "
            f"alphabet {alphabet!r}"
        )
    payload = {
        "schema": SCHEMA_VERSION,
        "alphabet": alphabet,
        # json.dumps renders floats with repr (shortest round-trip), so
        # the fingerprint is exact, not approximate.
        "probabilities": [float(p) for p in model.probabilities],
        "trials": trials,
        "seed": seed,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def length_bucket(n: int, minimum: int = _MIN_BUCKET) -> int:
    """Round ``n`` up to the next power of two (floor ``minimum``).

    >>> length_bucket(1)
    64
    >>> length_bucket(64)
    64
    >>> length_bucket(65)
    128
    >>> length_bucket(1000)
    1024
    """
    ensure_positive_int(n, "n")
    bucket = minimum
    while bucket < n:
        bucket *= 2
    return bucket


class CalibrationCache:
    """Memoized Monte-Carlo X²max null distributions, keyed by
    ``(model, length bucket)``.

    Parameters
    ----------
    trials:
        Monte-Carlo trials per distribution (p-value resolution is
        ``1 / (trials + 1)``).
    seed:
        Base seed; each key derives a distinct deterministic stream from
        it, so cache contents do not depend on request order.
    backend:
        Kernel backend name or instance for the simulations (see
        :mod:`repro.kernels`); ``None`` defers to ``REPRO_BACKEND`` /
        the default.  Backends produce bit-identical samples, so this
        is purely a throughput knob.
    max_entries:
        Bound on the in-memory distribution count (LRU eviction).  Every
        distinct ``(model, bucket)`` key costs ``trials`` floats forever,
        so a long-lived multi-tenant service would otherwise grow without
        bound -- one simulation per tenant model per length bucket.
        ``None`` (the default, and the right call for one-shot batch
        runs) keeps everything.  Evicting is always safe: a re-requested
        key re-simulates (or re-reads disk, for
        :class:`~repro.service.store.DiskCalibrationCache`) to
        bit-identical samples, it just costs time again.  Evictions are
        counted on :attr:`evictions` and the
        ``repro_calib_evictions_total`` metric.

    Examples
    --------
    >>> cache = CalibrationCache(trials=12, seed=0)
    >>> model = BernoulliModel.uniform("ab")
    >>> first = cache.distribution_for(model, 50)
    >>> cache.distribution_for(model, 60) is first   # same 64-bucket
    True
    >>> cache.misses, cache.hits
    (1, 1)
    """

    def __init__(
        self,
        trials: int = 100,
        seed: int = 0,
        backend=None,
        *,
        max_entries: int | None = None,
    ) -> None:
        ensure_positive_int(trials, "trials")
        if max_entries is not None:
            ensure_positive_int(max_entries, "max_entries")
        self.trials = trials
        self.seed = seed
        self.backend = backend
        self.max_entries = max_entries
        #: Distributions dropped by the LRU bound (0 while unbounded).
        self.evictions = 0
        self._distributions: dict[tuple[BernoulliModel, int], MSSNullDistribution] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: The :class:`~repro.obs.metrics.MetricsRegistry` cache events
        #: and simulation timings are reported into; a service replaces
        #: it with its own registry.
        self.metrics = default_registry()

    def _event(self, event: str) -> None:
        """Count one cache event (hit/miss/simulate/disk tier) in the
        metrics registry, labelled by kind."""
        self.metrics.counter(
            "repro_calibration_events_total",
            "Calibration cache events by kind",
            labelnames=("event",),
        ).labels(event=event).inc()

    def __len__(self) -> int:
        return len(self._distributions)

    def __iter__(self) -> Iterator[tuple[BernoulliModel, int]]:
        return iter(dict(self._distributions))

    def _cache_get(self, key) -> MSSNullDistribution | None:
        """Fetch one entry, refreshing its LRU recency (lock held)."""
        cached = self._distributions.get(key)
        if cached is not None and self.max_entries is not None:
            # Dicts preserve insertion order: re-inserting moves the key
            # to the back, so eviction always takes the least recent.
            self._distributions[key] = self._distributions.pop(key)
        return cached

    def _cache_store(self, key, distribution) -> MSSNullDistribution:
        """Insert one entry, evicting past ``max_entries`` (lock held).

        Keeps ``setdefault`` semantics: a concurrent insert that lost
        the race returns the winner's (identical) distribution.
        """
        existing = self._cache_get(key)
        if existing is not None:
            return existing
        self._distributions[key] = distribution
        if self.max_entries is not None:
            while len(self._distributions) > self.max_entries:
                oldest = next(iter(self._distributions))
                del self._distributions[oldest]
                self.evictions += 1
                self.metrics.counter(
                    "repro_calib_evictions_total",
                    "In-memory calibration distributions dropped by the "
                    "LRU bound.",
                ).inc()
                _LOG.debug(
                    "calibration_evict",
                    bucket=oldest[1],
                    max_entries=self.max_entries,
                )
        return distribution

    def distribution_for(
        self, model: BernoulliModel, n: int, *, executor=None
    ) -> MSSNullDistribution:
        """The (cached) null distribution covering documents of length
        ``n``.  A cold key simulates on ``executor``'s threads when one
        is given (see :func:`~repro.analysis.calibration.mss_null_distribution`);
        the samples are the same either way."""
        bucket = length_bucket(n)
        key = (model, bucket)
        with self._lock:
            cached = self._cache_get(key)
            if cached is not None:
                self.hits += 1
        if cached is not None:
            self._event("memory_hit")
            return cached
        # Simulate outside the lock: concurrent misses on the same key may
        # duplicate work but stay correct (the simulation is deterministic
        # per key, so whichever insert wins stores the identical result).
        started = time.perf_counter()
        distribution = self._simulate(model, bucket, executor=executor)
        elapsed = time.perf_counter() - started
        self.metrics.histogram(
            "repro_calibration_simulate_seconds",
            "Wall seconds per Monte-Carlo calibration simulation",
        ).observe(elapsed)
        self._event("simulate")
        _LOG.info(
            "calibration_simulate",
            bucket=bucket,
            trials=self.trials,
            seconds=round(elapsed, 6),
        )
        with self._lock:
            self.misses += 1
            return self._cache_store(key, distribution)

    def _simulate(
        self, model: BernoulliModel, bucket: int, *, executor=None
    ) -> MSSNullDistribution:
        """Run the Monte-Carlo simulation for one (model, bucket) key.

        The single choke-point for simulation work: the disk-backed
        subclass (:class:`repro.service.store.DiskCalibrationCache`)
        only simulates through here, which is what the service's
        zero-trials-on-warm-restart test instruments.
        """
        return mss_null_distribution(
            model, bucket, trials=self.trials, seed=self._key_seed(bucket),
            backend=self.backend, executor=executor,
        )

    def p_value(
        self, model: BernoulliModel, n: int, x2_max: float, *, executor=None
    ) -> float:
        """Calibrated family-wise p-value of a document's X²max."""
        return self.distribution_for(model, n, executor=executor).p_value(
            x2_max
        )

    def critical_value(self, model: BernoulliModel, n: int, alpha: float) -> float:
        """Calibrated rejection threshold at family level ``alpha``."""
        return self.distribution_for(model, n).critical_value(alpha)

    def _key_seed(self, bucket: int) -> int:
        """Deterministic per-bucket seed, independent of request order."""
        return (self.seed * 1_000_003 + bucket) % (2**32)

    def summary(self) -> dict:
        """JSON-ready view of what was simulated (for CLI/bench output)."""
        return {
            "trials": self.trials,
            "seed": self.seed,
            "hits": self.hits,
            "misses": self.misses,
            "max_entries": self.max_entries,
            "evictions": self.evictions,
            "entries": [
                {
                    "k": model.k,
                    "bucket": bucket,
                    "mean_x2max": dist.mean,
                    "two_ln_n": dist.two_ln_n,
                }
                for (model, bucket), dist in sorted(
                    self._distributions.items(), key=lambda item: item[0][1]
                )
            ],
        }

    def __repr__(self) -> str:
        return (
            f"CalibrationCache(trials={self.trials}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
