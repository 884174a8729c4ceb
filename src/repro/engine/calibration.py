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
import os
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

#: Magic string identifying our persisted-calibration JSON files.
_FORMAT = "repro-mss-calibration"

_LOG = get_logger("repro.engine.calibration")


def _fingerprint_from_values(alphabet, probabilities, trials, seed) -> str:
    """The fingerprint hash over raw (alphabet, probabilities) values.

    Shared by :func:`model_fingerprint` (live models) and
    :meth:`CalibrationCache.load` (values straight from a persisted
    file).  Hashing raw values on both sides is what makes the
    round-trip exact: reconstructing a ``BernoulliModel`` from saved
    probabilities would *re-normalise* them (a 1-ulp shift for most
    alphabets) and change the hash.
    """
    alphabet = list(alphabet)
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
        "probabilities": [float(p) for p in probabilities],
        "trials": trials,
        "seed": seed,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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
    return _fingerprint_from_values(
        model.alphabet, model.probabilities, trials, seed
    )


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
        #: Entries merged by :meth:`load`, keyed by ``(fingerprint,
        #: bucket)``.  Kept separate from ``_distributions`` on purpose:
        #: reconstructing a ``BernoulliModel`` from persisted floats
        #: would re-normalise them and break hash-equality with the live
        #: model, so loaded samples are matched by fingerprint at lookup
        #: time instead and promoted under the live model's key.
        self._loaded: dict[tuple[str, int], MSSNullDistribution] = {}
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
        loaded = self._loaded_entry(model, bucket)
        if loaded is not None:
            self._event("loaded_hit")
            with self._lock:
                self.hits += 1
                return self._cache_store(key, loaded)
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

    def _loaded_entry(self, model, bucket) -> MSSNullDistribution | None:
        """A :meth:`load`-ed distribution for this exact configuration.

        Matched by the *live* model's fingerprint, so only a model whose
        alphabet and probabilities are bit-identical to the saved ones
        (plus matching trials/seed) ever reuses persisted samples.
        """
        if not self._loaded:
            return None
        try:
            fingerprint = model_fingerprint(model, self.trials, self.seed)
        except TypeError:
            return None  # non-string symbols are never persisted
        with self._lock:
            return self._loaded.get((fingerprint, bucket))

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

    def save(self, path: str | os.PathLike) -> int:
        """Persist every simulated distribution to ``path`` (JSON).

        The file carries a schema version plus a per-entry
        :func:`model_fingerprint`, so a later :meth:`load` can verify
        the samples were produced by *exactly* this configuration
        (alphabet, probabilities, trials, seed) before reusing them.
        The write is atomic (temp file + ``os.replace``).  Returns the
        number of entries written; models over non-string symbols cannot
        be serialised and raise ``TypeError``.
        """
        with self._lock:
            items = list(self._distributions.items())
        entries = []
        for (model, bucket), distribution in items:
            entries.append({
                "fingerprint": model_fingerprint(model, self.trials, self.seed),
                "alphabet": list(model.alphabet),
                "probabilities": list(model.probabilities),
                "bucket": bucket,
                "samples": list(distribution.samples),
            })
        entries.sort(key=lambda entry: (entry["fingerprint"], entry["bucket"]))
        data = {
            "format": _FORMAT,
            "schema": SCHEMA_VERSION,
            "trials": self.trials,
            "seed": self.seed,
            "entries": entries,
        }
        path = os.fspath(path)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        os.replace(tmp, path)
        return len(entries)

    def load(self, path: str | os.PathLike) -> int:
        """Merge distributions persisted by :meth:`save` into the cache.

        Every safety property is checked before a single sample is
        reused, and any mismatch raises ``ValueError`` instead of
        silently serving samples from a different configuration:

        * file format marker and :data:`SCHEMA_VERSION` must match;
        * the file's ``trials`` / ``seed`` must equal this cache's;
        * each entry's stored fingerprint must equal the fingerprint
          recomputed from the entry's own raw model parameters and this
          cache's ``trials``/``seed`` (detects tampering and parameter
          drift);
        * each entry must carry exactly ``trials`` samples.

        Loaded entries are matched at lookup time by the live model's
        fingerprint (see :meth:`_loaded_entry`) and count as hits when
        used; simulation only runs when nothing matches.  Returns the
        number of entries merged.
        """
        with open(os.fspath(path), encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict) or data.get("format") != _FORMAT:
            raise ValueError(f"{path!s} is not a persisted calibration cache")
        if data.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"{path!s} has schema {data.get('schema')!r}; this version "
                f"reads schema {SCHEMA_VERSION} only"
            )
        if data.get("trials") != self.trials or data.get("seed") != self.seed:
            raise ValueError(
                f"{path!s} was simulated with trials={data.get('trials')!r}, "
                f"seed={data.get('seed')!r}; this cache is configured with "
                f"trials={self.trials}, seed={self.seed} -- refusing to reuse "
                f"samples from a different configuration"
            )
        loaded = 0
        for entry in data.get("entries", []):
            bucket = int(entry["bucket"])
            # Verify integrity against the entry's own raw values --
            # never through a reconstructed BernoulliModel, whose
            # re-normalisation would shift the floats by an ulp and
            # reject legitimately saved files.
            expected = _fingerprint_from_values(
                entry["alphabet"], entry["probabilities"],
                self.trials, self.seed,
            )
            if entry.get("fingerprint") != expected:
                raise ValueError(
                    f"{path!s}: entry for bucket {bucket} "
                    f"(k={len(entry['alphabet'])}) has fingerprint "
                    f"{entry.get('fingerprint')!r}, expected {expected!r} -- "
                    f"model parameters do not match the stored samples"
                )
            samples = tuple(float(value) for value in entry["samples"])
            if len(samples) != self.trials:
                raise ValueError(
                    f"{path!s}: entry for bucket {bucket} has {len(samples)} "
                    f"samples, expected {self.trials}"
                )
            distribution = MSSNullDistribution(
                n=bucket, alphabet_size=len(entry["alphabet"]), samples=samples
            )
            with self._lock:
                self._loaded.setdefault((expected, bucket), distribution)
            loaded += 1
        return loaded

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
