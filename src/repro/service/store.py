"""Disk-backed calibration: warm restarts skip the Monte-Carlo bill.

The in-memory :class:`~repro.engine.calibration.CalibrationCache` makes
calibration affordable *within* one process -- one simulation per
(model, length-bucket).  A service restart used to throw that work away
and re-simulate every bucket from scratch on the first calibrated
requests.  :class:`DiskCalibrationCache` closes that gap: every
simulated distribution is also written to a versioned on-disk store
(one JSON file per (configuration, bucket) under
:func:`default_cache_dir` or an explicit ``cache_dir``), and a cache
miss probes the disk *before* simulating.  A warm restart therefore
serves its first calibrated request with **zero** Monte-Carlo trials
run -- enforced by ``tests/service/test_store.py``.

Safety over convenience: an on-disk entry is only trusted when its
stored :func:`~repro.engine.calibration.model_fingerprint` (covering
schema version, alphabet, probabilities, trials and seed) matches the
fingerprint this cache recomputes from its own parameters.  Corrupt,
truncated or mismatched files are treated as misses and overwritten by
a fresh simulation; they are never silently reused.  Disk writes are
atomic (temp file + ``os.replace``), so concurrent services sharing one
cache directory cannot observe torn entries.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.core.model import BernoulliModel
from repro.engine.calibration import (
    SCHEMA_VERSION,
    CalibrationCache,
    length_bucket,
    model_fingerprint,
)
from repro.analysis.calibration import MSSNullDistribution
from repro.faults import get_faults
from repro.obs.log import get_logger

__all__ = ["DiskCalibrationCache", "default_cache_dir"]

_LOG = get_logger("repro.service.store")

#: Magic string identifying per-bucket entry files on disk.
_ENTRY_FORMAT = "repro-mss-calibration-entry"


def default_cache_dir() -> Path:
    """The default on-disk store: ``$XDG_CACHE_HOME/repro-mss`` or
    ``~/.cache/repro-mss``.

    >>> default_cache_dir().name
    'repro-mss'
    """
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro-mss"


class DiskCalibrationCache(CalibrationCache):
    """A :class:`CalibrationCache` whose entries persist across restarts.

    Lookup order on a request: in-memory dict, then the on-disk store,
    then Monte-Carlo simulation (which also writes the entry back to
    disk for the next process).  Results are bit-identical across the
    three paths -- disk entries literally are the simulated samples.

    Parameters
    ----------
    cache_dir:
        Directory for the store (created lazily on first write).
        ``None`` uses :func:`default_cache_dir`.
    trials / seed / backend:
        As for :class:`~repro.engine.calibration.CalibrationCache`; they
        are part of each entry's fingerprint, so caches with different
        configurations never share entries.
    max_entries:
        LRU bound on the *in-memory* tier (``serve
        --calib-cache-entries``).  The disk tier is unbounded, so an
        evicted entry costs a disk read on re-request, never a
        re-simulation.

    Examples
    --------
    >>> import tempfile
    >>> cache = DiskCalibrationCache(tempfile.mkdtemp(), trials=12)
    >>> cache.disk_hits, cache.disk_writes
    (0, 0)
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        *,
        trials: int = 100,
        seed: int = 0,
        backend=None,
        max_entries: int | None = None,
    ) -> None:
        super().__init__(
            trials=trials, seed=seed, backend=backend, max_entries=max_entries
        )
        self.cache_dir = (
            Path(cache_dir) if cache_dir is not None else default_cache_dir()
        )
        #: Requests served from disk (no simulation run).
        self.disk_hits = 0
        #: Entries written to disk (one per fresh simulation).
        self.disk_writes = 0
        #: Disk probes that found nothing usable (missing, corrupt, or
        #: fingerprint-mismatched files -- all treated identically).
        self.disk_misses = 0

    def entry_path(self, model: BernoulliModel, n: int) -> Path:
        """The store file covering documents of length ``n`` under ``model``.

        The name is ``<fingerprint-prefix>-b<bucket>.json``: the
        fingerprint pins the configuration, the bucket suffix keeps the
        directory human-browsable.
        """
        bucket = length_bucket(n)
        fingerprint = model_fingerprint(model, self.trials, self.seed)
        return self.cache_dir / f"{fingerprint[:40]}-b{bucket}.json"

    def distribution_for(
        self, model: BernoulliModel, n: int, *, executor=None
    ) -> MSSNullDistribution:
        """The cached null distribution: memory, then disk, then simulate
        (on ``executor``'s threads when one is given)."""
        bucket = length_bucket(n)
        key = (model, bucket)
        with self._lock:
            cached = self._cache_get(key)
            if cached is not None:
                self.hits += 1
        if cached is not None:
            self._event("memory_hit")
            return cached
        loaded = self._read_entry(model, bucket)
        if loaded is not None:
            self._event("disk_hit")
            _LOG.debug("calibration_disk_hit", bucket=bucket)
            with self._lock:
                self.disk_hits += 1
                return self._cache_store(key, loaded)
        self._event("disk_miss")
        with self._lock:
            self.disk_misses += 1
        distribution = super().distribution_for(model, n, executor=executor)
        self._write_entry(model, bucket, distribution)
        return distribution

    def _read_entry(self, model, bucket) -> MSSNullDistribution | None:
        """Load one entry, or None when absent/corrupt/mismatched.

        Unusable files are a miss, not an error: the caller re-simulates
        and overwrites them, which self-heals a damaged store.  A file
        that *exists* but cannot be used (torn JSON, schema or
        fingerprint mismatch, wrong sample count) is additionally
        counted and logged as a ``disk_corrupt`` event -- an absent file
        is an ordinary cold miss and stays silent.
        """
        path = self.entry_path(model, bucket)
        try:
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._corrupt(path, bucket, "unreadable or invalid JSON")
            return None
        if get_faults().should_fire("disk_cache_corrupt"):
            # Fault site: treat the (perfectly fine) entry as damaged --
            # exercises the quarantine-and-resimulate path end to end.
            self._corrupt(path, bucket, "fault injection")
            return None
        expected = model_fingerprint(model, self.trials, self.seed)
        try:
            usable = (
                entry.get("format") == _ENTRY_FORMAT
                and entry.get("schema") == SCHEMA_VERSION
                and entry.get("fingerprint") == expected
                and int(entry.get("bucket", -1)) == bucket
                and len(entry["samples"]) == self.trials
            )
            if not usable:
                self._corrupt(path, bucket, "schema or fingerprint mismatch")
                return None
            samples = tuple(float(value) for value in entry["samples"])
            return MSSNullDistribution(
                n=bucket, alphabet_size=model.k, samples=samples
            )
        except (KeyError, TypeError, ValueError):
            self._corrupt(path, bucket, "malformed entry fields")
            return None

    def _corrupt(self, path, bucket, reason: str) -> None:
        """Count and log one unusable on-disk entry."""
        self._event("disk_corrupt")
        _LOG.warning(
            "calibration_disk_corrupt",
            path=str(path),
            bucket=bucket,
            reason=reason,
        )

    def _write_entry(self, model, bucket, distribution) -> None:
        """Persist one freshly simulated entry (atomic, best-effort).

        A read-only or full disk degrades the cache to in-memory
        behaviour instead of failing the request.
        """
        path = self.entry_path(model, bucket)
        entry = {
            "format": _ENTRY_FORMAT,
            "schema": SCHEMA_VERSION,
            "fingerprint": model_fingerprint(model, self.trials, self.seed),
            "alphabet": list(model.alphabet),
            "probabilities": list(model.probabilities),
            "trials": self.trials,
            "seed": self.seed,
            "bucket": bucket,
            "samples": list(distribution.samples),
        }
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)
            os.replace(tmp, path)
        except OSError as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            _LOG.warning(
                "calibration_disk_write_failed",
                path=str(path),
                error=type(exc).__name__,
            )
            return
        self.disk_writes += 1
        self._event("disk_write")
        _LOG.debug("calibration_disk_write", path=str(path), bucket=bucket)

    def summary(self) -> dict:
        """JSON-ready view including the disk tier (for ``/stats``)."""
        data = super().summary()
        data["disk"] = {
            "cache_dir": str(self.cache_dir),
            "hits": self.disk_hits,
            "misses": self.disk_misses,
            "writes": self.disk_writes,
        }
        return data

    def __repr__(self) -> str:
        return (
            f"DiskCalibrationCache(cache_dir={str(self.cache_dir)!r}, "
            f"trials={self.trials}, entries={len(self)}, "
            f"disk_hits={self.disk_hits})"
        )
