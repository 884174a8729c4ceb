"""The ``"native"`` kernel backend: on-demand-compiled C scans.

``_native/mss_kernels.c`` is a line-by-line C port of the pure-Python
reference walkers -- same IEEE-754 operation order, same chain-cover
jump truncation, a faithful replication of CPython's ``heapq`` sift
order -- so its results are *bit-identical* to the ``"python"`` and
``"numpy"`` backends (enforced by the parity suite and by a small
self-check on first load).  What changes is only the speed: the whole
recurrence stays in registers instead of round-tripping through the
interpreter or through numpy temporaries.

Compilation and caching
-----------------------

The shared library is built once per source revision and cached under
``$REPRO_NATIVE_CACHE`` (default ``~/.cache/repro-mss/native/``) in a
directory named by a content hash over the C source, the compiler
flags, and an ABI tag::

    ~/.cache/repro-mss/native/<hash>/mss_kernels.so

Compiles go through a temp file + ``os.replace`` so concurrent
processes never load a half-written artifact, and a later process (a
router's shards, a restarted service) resolves ``"native"`` by *loading
the cached artifact* -- no compiler is needed once the artifact exists,
which is also why a warm cache survives ``CC=/nonexistent``.

The C source has no mutable globals and ctypes releases the GIL for
every call, so threads may run the kernels side by side
(:class:`~repro.engine.executors.ThreadExecutor`).

The flags are ``-O2 -ffp-contract=off`` and deliberately **not**
``-ffast-math``: contraction or reassociation would change results in
the last ulp and break the ``==`` parity contract.  The flags are a
constant: no environment variable adds to them.  An instrumented build
(CI's AddressSanitizer job) comes from a ``$CC`` wrapper that adds its
own flags, under its own ``$REPRO_NATIVE_CACHE``, so a normal run never
loads it.

Lanes
-----

``mine_batch`` (mss and minlength) and ``simulate_x2max`` run on the C
lane walker: each call keeps several best-substring scans in flight and
advances them one X² evaluation at a time, so the dependent chains of
different documents (or calibration trials) overlap on one core.  On a
CPU with AVX2 a step advances a group of four lanes with one vector
instruction per operation, two groups (eight lanes) per call for
documents and trials alike; elsewhere four scalar lanes take turns.
:attr:`NativeBackend.lane_step` says which (``"avx2"`` or
``"scalar"``).  Lanes claim documents, longest first, or trials from a
:class:`ClaimCursor` that every thread of a run shares; a thread's
first claims are snake-striped across the run's threads, so the longest
documents do not all land on one thread.  The lanes take encoded
strings (:attr:`~repro.core.counts.PrefixCountIndex.codes_array`, or a
calibration chunk's rows), and the lane that claims one builds its
prefix matrix in its own buffer, so the lanes path builds no matrix in
Python and holds about one per lane.  Each lane runs exactly the
single-document scan's operations, so the results stay bit-identical;
``mss_kernels.c`` gives the rules that keep them so.

Fallback ladder
---------------

:meth:`NativeBackend._ensure` walks, in order: cached artifact ->
compiler discovery (``$CC`` honoured; a bad path means "no compiler")
-> compile -> load + bind -> parity self-check against the reference.
Any failure degrades the backend to a named alias that delegates every
call to :class:`~repro.kernels.numpy_backend.NumpyBackend`, emitting a
single structured ``native_fallback`` warning -- ``"native"`` stays
selectable everywhere and simply resolves to numpy semantics (which are
bit-identical anyway), so a host without a toolchain loses speed, never
correctness.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.core.skip import ROOT_EPSILON
from repro.kernels.numpy_backend import NumpyBackend, _simulate_chunked
from repro.kernels.python_backend import mine_reference
from repro.obs.log import get_logger

__all__ = ["ClaimCursor", "NativeBackend", "native_cache_dir"]

_LOG = get_logger("repro.kernels.native")

#: Environment variable overriding the compile-cache root directory.
CACHE_ENV = "REPRO_NATIVE_CACHE"

#: Compiler flags baked into the artifact hash.  ``-ffp-contract=off``
#: blocks FMA contraction; ``-ffast-math`` is deliberately absent.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Bumped whenever the exported C ABI changes, so stale cached artifacts
#: from an older layout are never loaded.
_ABI_TAG = "repro-native-v4"

_PI64 = ctypes.POINTER(ctypes.c_int64)
_PF64 = ctypes.POINTER(ctypes.c_double)


def native_cache_dir() -> Path:
    """The compile-cache root: ``$REPRO_NATIVE_CACHE`` or the default
    ``~/.cache/repro-mss/native``."""
    root = os.environ.get(CACHE_ENV, "").strip()
    if root:
        return Path(root).expanduser()
    return Path.home() / ".cache" / "repro-mss" / "native"


def _source_path() -> Path:
    return Path(__file__).parent / "_native" / "mss_kernels.c"


_HASH: str | None = None


def _content_hash() -> str:
    """Hex digest naming the artifact directory (source + flags + ABI)."""
    global _HASH
    if _HASH is None:
        digest = hashlib.sha256()
        digest.update(_ABI_TAG.encode())
        digest.update(" ".join(CFLAGS).encode())
        digest.update(_source_path().read_bytes())
        _HASH = digest.hexdigest()[:16]
    return _HASH


def _artifact_path() -> Path:
    return native_cache_dir() / _content_hash() / "mss_kernels.so"


def _find_compiler() -> str | None:
    """The C compiler to use: ``$CC`` if set (even when broken -- an
    explicit choice is never second-guessed), else the first of
    gcc/cc/clang on ``PATH``."""
    cc = os.environ.get("CC", "").strip()
    if cc:
        return shutil.which(cc)
    for candidate in ("gcc", "cc", "clang"):
        found = shutil.which(candidate)
        if found:
            return found
    return None


def _compile(cc: str, artifact: Path) -> None:
    """Compile the C source into ``artifact`` atomically."""
    artifact.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(artifact.parent))
    os.close(fd)
    try:
        command = [cc, *CFLAGS, "-o", tmp, str(_source_path()), "-lm"]
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=300
        )
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout).strip()[:500]
            raise RuntimeError(
                f"compile failed (exit {proc.returncode}): {detail}"
            )
        os.replace(tmp, artifact)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the ctypes signatures of every exported entry point."""
    i64, f64, i32 = ctypes.c_int64, ctypes.c_double, ctypes.c_int32
    ptr = ctypes.c_void_p
    lib.repro_scan_mss.restype = i32
    lib.repro_scan_mss.argtypes = [
        _PI64, i64, i64, _PF64, _PF64, f64, _PF64, _PI64, _PI64,
    ]
    lib.repro_scan_mss_min_length.restype = i32
    lib.repro_scan_mss_min_length.argtypes = [
        _PI64, i64, i64, _PF64, _PF64, i64, f64, _PF64, _PI64, _PI64,
    ]
    lib.repro_scan_top_t.restype = i32
    lib.repro_scan_top_t.argtypes = [
        _PI64, i64, i64, _PF64, _PF64, i64, f64, _PF64, _PI64, _PI64, _PI64,
    ]
    lib.repro_scan_threshold.restype = i32
    lib.repro_scan_threshold.argtypes = [
        _PI64, i64, i64, _PF64, _PF64, f64, i32, i64, i32, f64,
        ctypes.POINTER(_PF64), ctypes.POINTER(_PI64), ctypes.POINTER(_PI64),
        _PI64, _PI64, ctypes.POINTER(i32), _PI64,
    ]
    lib.repro_free.restype = None
    lib.repro_free.argtypes = [ctypes.c_void_p]
    lib.repro_claim.restype = i64
    lib.repro_claim.argtypes = [ptr, ptr, i64, f64]
    lib.repro_lane_step.restype = i32
    lib.repro_lane_step.argtypes = []
    lib.repro_mine_lanes.restype = i32
    lib.repro_mine_lanes.argtypes = [
        ptr, _PI64, i64, ptr, ptr, i64, f64, i64, _PF64, _PF64, i64,
        i32, f64, _PF64, _PI64, _PI64,
    ]
    lib.repro_calibrate_lanes.restype = i32
    lib.repro_calibrate_lanes.argtypes = [
        _PI64, i64, i64, i64, _PF64, _PF64, f64, ptr, ptr, i64, _PF64,
    ]
    return lib


#: Per-artifact-path load results, shared by every NativeBackend instance
#: in the process.
_LOAD_CACHE: dict[str, tuple[ctypes.CDLL | None, str | None]] = {}
_LOAD_LOCK = threading.Lock()


def _load_library() -> tuple[ctypes.CDLL | None, str | None]:
    """Load (compiling if necessary) the native library.

    Returns ``(lib, None)`` on success or ``(None, reason)`` on any
    failure -- a missing compiler, a failed compile, an unloadable or
    symbol-incomplete artifact.  The result is cached per artifact path,
    so a changed ``$REPRO_NATIVE_CACHE``/``$CC`` in tests resolves
    freshly while steady-state callers pay the ladder once.
    """
    artifact = _artifact_path()
    key = str(artifact)
    with _LOAD_LOCK:
        cached = _LOAD_CACHE.get(key)
        if cached is not None:
            return cached
        lib: ctypes.CDLL | None = None
        reason: str | None = None
        try:
            if not artifact.exists():
                cc = _find_compiler()
                if cc is None:
                    reason = (
                        "no C compiler found (install gcc or point $CC at "
                        "one) and no cached artifact at "
                        f"{artifact}"
                    )
                else:
                    _compile(cc, artifact)
            if reason is None:
                lib = _bind(ctypes.CDLL(str(artifact)))
        except Exception as exc:  # any failure must degrade, never crash
            lib = None
            reason = f"{type(exc).__name__}: {exc}"
        _LOAD_CACHE[key] = (lib, reason)
        return lib, reason


def _require_lib() -> ctypes.CDLL:
    """The loaded library, or ``RuntimeError`` for module-level entry
    points that run without a :class:`NativeBackend` instance."""
    lib, reason = _load_library()
    if lib is None:
        raise RuntimeError(f"native kernels unavailable: {reason}")
    return lib


def _model_arrays(model) -> tuple[np.ndarray, np.ndarray]:
    """``(probs, inv_p)`` float64 arrays in alphabet order."""
    probs = np.ascontiguousarray(model.probabilities, dtype=np.float64)
    return probs, 1.0 / probs


#: Guards the first allocation of a shared cursor's claim flags.
_FLAGS_LOCK = threading.Lock()


class ClaimCursor:
    """The next unclaimed document or trial of one run.

    Every call that mines the run shares the cursor: the C lanes and
    :meth:`claim` take slots through ``claim_slot`` in
    ``mss_kernels.c``, which sets one claim flag per slot by an atomic
    exchange, so each slot goes to exactly one claimant however many
    calls share the cursor.  ``threads`` is how many lane calls the run
    makes: each call takes the next seat, and lane l of seat t starts on
    the snake-striped slot l * threads + t (even l) or l * threads +
    threads - 1 - t (odd l), so the longest documents of a run spread
    evenly over its threads; a seat at or past ``threads`` (more
    calls than announced) claims from the cursor alone, and a slot left
    by a seat that never comes is claimed from the cursor too.  With a
    ``deadline`` (a :class:`~repro.engine.deadline.Deadline`) nothing is
    claimed once it has passed; a document already claimed still
    finishes.  Every call sharing a cursor claims from the same number
    of slots.
    """

    __slots__ = ("deadline", "threads", "next", "taken", "_addresses")

    def __init__(self, deadline=None, threads: int = 1) -> None:
        self.deadline = deadline
        self.threads = max(1, int(threads))
        self.next = np.zeros(2, dtype=np.int64)  # next slot, next seat
        self.taken: np.ndarray | None = None  # one claim flag per slot
        self._addresses: tuple[int, int] | None = None

    def budget(self) -> float:
        """Seconds left before the deadline (``inf`` without one)."""
        return math.inf if self.deadline is None else self.deadline.remaining()

    def addresses(self, count: int) -> tuple[int, int]:
        """The C view of a run of ``count`` slots: the addresses of the
        cursor (next slot, next seat) and of its claim flags, allocated
        on first use."""
        addresses = self._addresses
        if addresses is None:
            with _FLAGS_LOCK:
                if self._addresses is None:
                    self.taken = np.zeros(count, dtype=np.uint8)
                    self._addresses = (
                        self.next.ctypes.data, self.taken.ctypes.data
                    )
                addresses = self._addresses
        if len(self.taken) != count:
            raise ValueError(
                f"cursor claims {len(self.taken)} slots, not {count}"
            )
        return addresses

    def claim(self, count: int, lib: ctypes.CDLL | None = None) -> int | None:
        """The next free slot below ``count``, or ``None`` once they are
        all claimed or the deadline has passed.  Runs on ``lib``, the
        loaded native library (a backend passes its own; without one
        the library is looked up)."""
        if lib is None:
            lib = _require_lib()
        cursor, taken = self.addresses(count)
        slot = lib.repro_claim(cursor, taken, count, self.budget())
        return slot if slot >= 0 else None


def _native_x2max_chunk(sub, n, k, probabilities, cursor, out):
    """Score the trials of one ``(t, n)`` chunk that this call's lanes
    claim from ``cursor``, writing each X²max into ``out[trial]``.

    Module-level and stateless, like the numpy backend's
    ``_x2max_chunk``; calls on several threads may share one cursor and
    one ``out``.  Raises ``RuntimeError`` when the library cannot load.
    """
    lib = _require_lib()
    probs = np.ascontiguousarray(probabilities, dtype=np.float64)
    inv_p = 1.0 / probs
    trials = int(sub.shape[0])
    next_slot, taken = cursor.addresses(trials)
    rc = lib.repro_calibrate_lanes(
        sub.ctypes.data_as(_PI64), trials, int(n), int(k),
        probs.ctypes.data_as(_PF64), inv_p.ctypes.data_as(_PF64),
        ROOT_EPSILON, next_slot, taken, cursor.threads,
        out.ctypes.data_as(_PF64),
    )
    if rc != 0:
        raise MemoryError("native calibration lanes: allocation failed")


def _parity_self_check(backend: "NativeBackend") -> str | None:
    """Tiny bit-for-bit comparison against the reference backend.

    Runs all four scans, the lane walker (``mine_batch`` on mss and
    minlength) and calibration on deterministic strings at k = 2 and
    k = 3 and compares raw tuples with ``==``.  The lane checks run the
    step :attr:`NativeBackend.lane_step` names, vector or scalar: the
    batch keeps five mss scans in flight (two vector groups, compacted
    into one at four) and three minlength scans (one group), and the
    six trials fill one vector group and part of another.  Returns
    ``None`` on success or a reason string -- a compiler that
    mis-rounds (or a corrupt artifact) is caught here and demoted to
    the numpy fallback rather than serving wrong results.
    """
    from types import SimpleNamespace

    from repro.core.counts import PrefixCountIndex
    from repro.core.model import BernoulliModel
    from repro.kernels.python_backend import PythonBackend

    reference = PythonBackend()
    rng = np.random.default_rng(20120821)
    mss = SimpleNamespace(problem="mss")
    minlength = SimpleNamespace(problem="minlength", min_length=4)
    for model in (
        BernoulliModel("ab", [0.6, 0.4]),
        BernoulliModel("abc", [0.5, 0.3, 0.2]),
    ):
        index = PrefixCountIndex(
            rng.integers(0, model.k, size=113), model.k
        )
        batch = [
            PrefixCountIndex(rng.integers(0, model.k, size=n), model.k)
            for n in (0, 3, 57, 9, 31, 1)
        ]
        checks = (
            ("scan_mss", lambda b: b.scan_mss(index, model)),
            ("scan_mss_min_length",
             lambda b: b.scan_mss_min_length(index, model, 5)),
            ("scan_top_t", lambda b: b.scan_top_t(index, model, 7)),
            ("scan_threshold",
             lambda b: b.scan_threshold(index, model, 1.0, limit=5)),
            ("mine_batch mss", lambda b: b.mine_batch(batch, model, mss)),
            ("mine_batch minlength",
             lambda b: b.mine_batch(batch, model, minlength)),
            ("simulate_x2max",
             lambda b: b.simulate_x2max(model, 40, 6, 3)),
        )
        for label, run in checks:
            if run(backend) != run(reference):
                return f"parity self-check failed on {label} (k={model.k})"
    return None


class NativeBackend:
    """On-demand-compiled C kernels, bit-identical to the reference.

    Lazy: nothing compiles at import or registration.  The first scan
    walks the fallback ladder (see the module docstring); afterwards
    either every hot path runs through the shared library, or -- when no
    toolchain/artifact is available -- every call delegates to a
    :class:`~repro.kernels.numpy_backend.NumpyBackend` and
    :attr:`resolved_name` reports ``"numpy"``.

    The auxiliary kernels (``best_over_pairs``, ``score_spans``,
    ``scan_mss_exhaustive``, ``scan_mss_skips``) always delegate to
    numpy: they are baselines and analysis paths, not the serving hot
    loop, and the delegate is already bit-identical to the reference.
    """

    name = "native"

    def __init__(self) -> None:
        self._numpy = NumpyBackend()
        self._lock = threading.Lock()
        self._lib: ctypes.CDLL | None = None
        self._fallback_reason: str | None = None
        self._ready = False

    # -- lifecycle ----------------------------------------------------

    def _ensure(self) -> None:
        """Walk the fallback ladder once; idempotent and thread-safe."""
        if self._ready:
            return
        with self._lock:
            if self._ready:
                return
            lib, reason = _load_library()
            self._lib = lib
            # The self-check calls the public scan methods, which
            # re-enter _ensure; publish readiness first so the re-entry
            # takes the fast path instead of deadlocking.
            self._ready = True
            if lib is not None:
                reason = _parity_self_check(self)
                if reason is not None:
                    self._lib = None
            if self._lib is None:
                self._fallback_reason = reason
                _LOG.warning(
                    "native_fallback",
                    backend=self.name,
                    resolved="numpy",
                    reason=reason,
                )

    @property
    def resolved_name(self) -> str:
        """``"native"`` when the compiled library serves, else ``"numpy"``
        (the fallback delegate) -- what ``GET /stats`` reports."""
        self._ensure()
        return "native" if self._lib is not None else "numpy"

    @property
    def is_native(self) -> bool:
        """True when the compiled library loaded and passed self-check."""
        return self.resolved_name == "native"

    @property
    def fallback_reason(self) -> str | None:
        """Why the backend degraded to numpy, or ``None`` when native."""
        self._ensure()
        return self._fallback_reason

    @property
    def lane_step(self) -> str | None:
        """The lane walker's step on this CPU: ``"avx2"`` (four lanes per
        vector instruction) or ``"scalar"`` (no AVX2, or a build with
        ``-DREPRO_SCALAR_LANES``); ``None`` when the backend resolved to
        numpy."""
        self._ensure()
        if self._lib is None:
            return None
        return "avx2" if self._lib.repro_lane_step() else "scalar"

    # -- scan methods -------------------------------------------------

    def scan_mss(self, index, model):
        """Full MSS scan; same contract and bits as the reference."""
        self._ensure()
        if self._lib is None:
            return self._numpy.scan_mss(index, model)
        mat = np.ascontiguousarray(index.counts_matrix())
        probs, inv_p = _model_arrays(model)
        out_best = np.empty(1, dtype=np.float64)
        out_pos = np.empty(2, dtype=np.int64)
        out_work = np.empty(2, dtype=np.int64)
        rc = self._lib.repro_scan_mss(
            mat.ctypes.data_as(_PI64), index.n, model.k,
            probs.ctypes.data_as(_PF64), inv_p.ctypes.data_as(_PF64),
            ROOT_EPSILON, out_best.ctypes.data_as(_PF64),
            out_pos.ctypes.data_as(_PI64), out_work.ctypes.data_as(_PI64),
        )
        if rc != 0:
            raise MemoryError("native scan_mss: allocation failed")
        return (
            float(out_best[0]), (int(out_pos[0]), int(out_pos[1])),
            int(out_work[0]), int(out_work[1]),
        )

    def scan_mss_min_length(self, index, model, min_length):
        """Problem 4 scan (generic arithmetic for every k, as the
        reference does); bit-identical contract."""
        self._ensure()
        if self._lib is None:
            return self._numpy.scan_mss_min_length(index, model, min_length)
        mat = np.ascontiguousarray(index.counts_matrix())
        probs, inv_p = _model_arrays(model)
        out_best = np.empty(1, dtype=np.float64)
        out_pos = np.empty(2, dtype=np.int64)
        out_work = np.empty(2, dtype=np.int64)
        rc = self._lib.repro_scan_mss_min_length(
            mat.ctypes.data_as(_PI64), index.n, model.k,
            probs.ctypes.data_as(_PF64), inv_p.ctypes.data_as(_PF64),
            int(min_length), ROOT_EPSILON, out_best.ctypes.data_as(_PF64),
            out_pos.ctypes.data_as(_PI64), out_work.ctypes.data_as(_PI64),
        )
        if rc != 0:
            raise MemoryError("native scan_mss_min_length: allocation failed")
        return (
            float(out_best[0]), (int(out_pos[0]), int(out_pos[1])),
            int(out_work[0]), int(out_work[1]),
        )

    def scan_top_t(self, index, model, t):
        """Top-t scan returning the raw size-t heap.  The C side
        replicates CPython's ``heapq`` sift order, so the heap *layout*
        (not just the set of entries) matches the reference."""
        self._ensure()
        if self._lib is None:
            return self._numpy.scan_top_t(index, model, t)
        mat = np.ascontiguousarray(index.counts_matrix())
        probs, inv_p = _model_arrays(model)
        heap_x2 = np.empty(t, dtype=np.float64)
        heap_i = np.empty(t, dtype=np.int64)
        heap_e = np.empty(t, dtype=np.int64)
        out_work = np.empty(2, dtype=np.int64)
        rc = self._lib.repro_scan_top_t(
            mat.ctypes.data_as(_PI64), index.n, model.k,
            probs.ctypes.data_as(_PF64), inv_p.ctypes.data_as(_PF64),
            int(t), ROOT_EPSILON,
            heap_x2.ctypes.data_as(_PF64), heap_i.ctypes.data_as(_PI64),
            heap_e.ctypes.data_as(_PI64), out_work.ctypes.data_as(_PI64),
        )
        if rc != 0:
            raise MemoryError("native scan_top_t: allocation failed")
        heap = list(zip(heap_x2.tolist(), heap_i.tolist(), heap_e.tolist()))
        return heap, int(out_work[0]), int(out_work[1])

    def scan_threshold(self, index, model, alpha0, limit=None,
                       count_only=False):
        """Threshold scan; matches the reference's truncation point and
        match prefix exactly (the C side ports the row loop verbatim,
        including the degenerate ``limit <= 0`` behaviour)."""
        self._ensure()
        if self._lib is None:
            return self._numpy.scan_threshold(
                index, model, alpha0, limit=limit, count_only=count_only
            )
        mat = np.ascontiguousarray(index.counts_matrix())
        probs, inv_p = _model_arrays(model)
        out_x2 = _PF64()
        out_i = _PI64()
        out_e = _PI64()
        out_found = ctypes.c_int64(0)
        out_match = ctypes.c_int64(0)
        out_trunc = ctypes.c_int32(0)
        out_work = np.empty(2, dtype=np.int64)
        rc = self._lib.repro_scan_threshold(
            mat.ctypes.data_as(_PI64), index.n, model.k,
            probs.ctypes.data_as(_PF64), inv_p.ctypes.data_as(_PF64),
            float(alpha0), 0 if limit is None else 1,
            0 if limit is None else int(limit), 1 if count_only else 0,
            ROOT_EPSILON, ctypes.byref(out_x2), ctypes.byref(out_i),
            ctypes.byref(out_e), ctypes.byref(out_found),
            ctypes.byref(out_match), ctypes.byref(out_trunc),
            out_work.ctypes.data_as(_PI64),
        )
        if rc != 0:
            raise MemoryError("native scan_threshold: allocation failed")
        length = out_found.value
        try:
            found = [
                (out_x2[m], int(out_i[m]), int(out_e[m]))
                for m in range(length)
            ]
        finally:
            self._lib.repro_free(out_x2)
            self._lib.repro_free(out_i)
            self._lib.repro_free(out_e)
        return (
            found, int(out_match.value), bool(out_trunc.value),
            int(out_work[0]), int(out_work[1]),
        )

    # -- batch + calibration ------------------------------------------

    def mine_batch(self, indexes, model, spec, cursor=None):
        """Mine a corpus chunk (the ``mine_batch`` contract).

        mss and minlength run on the C lane walker: eight scans in
        flight per call (two AVX2 groups where :attr:`lane_step` is
        ``"avx2"``; four scalar lanes elsewhere), each lane claiming the
        next document, longest first, when it frees up and building its
        prefix matrix from the index's codes (a scan left alone
        finishes with the lone scan's step, and a single document is
        one lone scan).  top-t and threshold claim documents the same
        way but scan each one on its own, building its matrix on the
        claiming thread.  Results are the single-document scans' bits
        either way.

        ``cursor`` (a :class:`ClaimCursor`) lets calls on several
        threads share the documents: each call returns the raw tuples
        of the documents it claimed and ``None`` for the rest, and a
        document left unclaimed by every call (the cursor's deadline
        passed) is ``None`` in all of them.  Without a cursor the call
        claims every document (and falls back to numpy without the
        library); a call with one needs the library.
        """
        self._ensure()
        if cursor is None:
            if self._lib is None:
                return self._numpy.mine_batch(indexes, model, spec)
            if len(indexes) == 1:  # nothing to overlap with
                return [mine_reference(self, indexes[0], model, spec)]
            cursor = ClaimCursor()
        elif self._lib is None:
            raise RuntimeError(
                f"native kernels unavailable: {self._fallback_reason}"
            )
        order = sorted(range(len(indexes)), key=lambda d: -indexes[d].n)
        if spec.problem in ("mss", "minlength"):
            return self._mine_lanes(indexes, order, model, spec, cursor)
        raws = [None] * len(indexes)
        while (slot := cursor.claim(len(order), self._lib)) is not None:
            doc = order[slot]
            raws[doc] = mine_reference(self, indexes[doc], model, spec)
        return raws

    def _mine_lanes(self, indexes, order, model, spec, cursor):
        """One ``repro_mine_lanes`` call over ``indexes`` in claim
        ``order``; raw tuples in input order, ``None`` where another
        call (or the deadline) took the document.  The lanes read each
        index's codes and build its prefix matrix themselves."""
        pointers = np.array(
            [indexes[doc].codes_array.ctypes.data for doc in order],
            dtype=np.uintp,
        )
        lengths = np.array([indexes[doc].n for doc in order], dtype=np.int64)
        docs = len(order)
        probs, inv_p = _model_arrays(model)
        mss = spec.problem == "mss"
        next_slot, taken = cursor.addresses(docs)
        out_best = np.empty(docs, dtype=np.float64)
        out_pos = np.empty(2 * docs, dtype=np.int64)
        out_work = np.full(2 * docs, -1, dtype=np.int64)
        rc = self._lib.repro_mine_lanes(
            pointers.ctypes.data_as(ctypes.c_void_p),
            lengths.ctypes.data_as(_PI64), docs, next_slot, taken,
            cursor.threads, cursor.budget(), model.k,
            probs.ctypes.data_as(_PF64), inv_p.ctypes.data_as(_PF64),
            1 if mss else int(spec.min_length), int(mss and model.k == 2),
            ROOT_EPSILON, out_best.ctypes.data_as(_PF64),
            out_pos.ctypes.data_as(_PI64), out_work.ctypes.data_as(_PI64),
        )
        if rc != 0:
            raise MemoryError("native mine_batch: allocation failed")
        best, pos, work = out_best.tolist(), out_pos.tolist(), out_work.tolist()
        raws = [None] * len(indexes)
        for slot, doc in enumerate(order):
            if work[2 * slot] >= 0:
                raws[doc] = (
                    best[slot], (pos[2 * slot], pos[2 * slot + 1]),
                    work[2 * slot], work[2 * slot + 1],
                )
        return raws

    def simulate_x2max(self, model, n, trials, seed, executor=None):
        """Monte-Carlo X²max samples through ``_simulate_chunked``,
        bit-identical to the reference.  Draws stay sequential there;
        each chunk's trials are claimed by C lanes (eight per call where
        :attr:`lane_step` is ``"avx2"``) on the same claim path as
        documents, which builds a trial's prefix matrix when a lane
        claims it.  With an ``executor``,
        ``executor.threads(self)`` calls on its pool share each chunk's
        cursor."""
        self._ensure()
        if self._lib is None:
            return self._numpy.simulate_x2max(model, n, trials, seed)
        threads = 1 if executor is None else executor.threads(self)

        def score(sub, n, k, probabilities):
            sub = np.ascontiguousarray(sub, dtype=np.int64)
            calls = min(threads, len(sub))
            cursor = ClaimCursor(threads=calls)
            out = np.empty(len(sub), dtype=np.float64)

            def lanes(_):
                _native_x2max_chunk(sub, n, k, probabilities, cursor, out)

            if calls == 1:
                lanes(None)
            else:
                executor.map(lanes, range(calls))
            return out.tolist()

        return _simulate_chunked(score, model, n, trials, seed)

    # -- auxiliary kernels (delegated) --------------------------------

    def best_over_pairs(self, counts_matrix, inv_p, starts, ends):
        """Delegates to the numpy backend (baseline path, not the hot
        loop); results are bit-identical to the reference."""
        return self._numpy.best_over_pairs(counts_matrix, inv_p, starts, ends)

    def score_spans(self, index, model, starts, ends):
        """Delegates to the numpy backend; bit-identical elementwise X²."""
        return self._numpy.score_spans(index, model, starts, ends)

    def scan_mss_exhaustive(self, index, model):
        """Delegates to the numpy backend's unpruned O(n²) baseline."""
        return self._numpy.scan_mss_exhaustive(index, model)

    def scan_mss_skips(self, index, model):
        """Delegates the skip-trace profiler (inherently sequential; every
        backend shares the reference implementation)."""
        return self._numpy.scan_mss_skips(index, model)

    def __repr__(self) -> str:
        status = "unresolved"
        if self._ready:
            status = "native" if self._lib is not None else "fallback:numpy"
        return f"NativeBackend({status})"
