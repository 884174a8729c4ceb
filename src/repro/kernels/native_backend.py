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
the last ulp and break the ``==`` parity contract.

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

__all__ = ["NativeBackend", "native_cache_dir"]

_LOG = get_logger("repro.kernels.native")

#: Environment variable overriding the compile-cache root directory.
CACHE_ENV = "REPRO_NATIVE_CACHE"

#: Compiler flags baked into the artifact hash.  ``-ffp-contract=off``
#: blocks FMA contraction; ``-ffast-math`` is deliberately absent.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Bumped whenever the exported C ABI changes, so stale cached artifacts
#: from an older layout are never loaded.
_ABI_TAG = "repro-native-v1"

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
    lib.repro_mine_batch_best.restype = i32
    lib.repro_mine_batch_best.argtypes = [
        ctypes.POINTER(_PI64), _PI64, i64, i64, _PF64, _PF64, i64, i32, f64,
        _PF64, _PI64, _PI64, _PI64, _PI64,
    ]
    lib.repro_calibrate_chunk.restype = i32
    lib.repro_calibrate_chunk.argtypes = [
        _PI64, i64, i64, i64, _PF64, _PF64, f64, _PF64,
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


def _native_x2max_chunk(sub, n, k, probabilities):
    """X²max of each row of one ``(t, n)`` chunk, via the native library.

    Module-level and stateless, like the numpy backend's
    ``_x2max_chunk``, so the shared calibration driver can call either.
    Raises ``RuntimeError`` when the library cannot load.
    """
    lib = _require_lib()
    sub = np.ascontiguousarray(sub, dtype=np.int64)
    probs = np.ascontiguousarray(probabilities, dtype=np.float64)
    inv_p = 1.0 / probs
    t = int(sub.shape[0])
    out = np.empty(t, dtype=np.float64)
    rc = lib.repro_calibrate_chunk(
        sub.ctypes.data_as(_PI64), t, int(n), int(k),
        probs.ctypes.data_as(_PF64), inv_p.ctypes.data_as(_PF64),
        ROOT_EPSILON, out.ctypes.data_as(_PF64),
    )
    if rc != 0:
        raise MemoryError("native calibration chunk: allocation failed")
    return out.tolist()


def _parity_self_check(backend: "NativeBackend") -> str | None:
    """Tiny bit-for-bit comparison against the reference backend.

    Runs all four scans on deterministic strings at k = 2 and k = 3 and
    compares raw tuples with ``==``.  Returns ``None`` on success or a
    reason string -- a compiler that mis-rounds (or a corrupt artifact)
    is caught here and demoted to the numpy fallback rather than
    serving wrong results.
    """
    from repro.core.counts import PrefixCountIndex
    from repro.core.model import BernoulliModel
    from repro.kernels.python_backend import PythonBackend

    reference = PythonBackend()
    rng = np.random.default_rng(20120821)
    for model in (
        BernoulliModel("ab", [0.6, 0.4]),
        BernoulliModel("abc", [0.5, 0.3, 0.2]),
    ):
        index = PrefixCountIndex(
            rng.integers(0, model.k, size=113), model.k
        )
        checks = (
            ("scan_mss", lambda b: b.scan_mss(index, model)),
            ("scan_mss_min_length",
             lambda b: b.scan_mss_min_length(index, model, 5)),
            ("scan_top_t", lambda b: b.scan_top_t(index, model, 7)),
            ("scan_threshold",
             lambda b: b.scan_threshold(index, model, 1.0, limit=5)),
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

    def mine_batch(self, indexes, model, spec):
        """Mine a whole corpus chunk in one call (the ``mine_batch``
        contract): ``mss``/``minlength`` go through one batched C call
        over per-document matrix pointers; ``top``/``threshold`` run the
        per-document reference dispatch over the native scans, which is
        the single-document scan by construction."""
        self._ensure()
        if self._lib is None:
            return self._numpy.mine_batch(indexes, model, spec)
        if spec.problem in ("mss", "minlength"):
            return self._mine_batch_best(indexes, model, spec)
        return [mine_reference(self, index, model, spec) for index in indexes]

    def _mine_batch_best(self, indexes, model, spec):
        indexes = list(indexes)
        docs = len(indexes)
        if docs == 0:
            return []
        off = 1 if spec.problem == "mss" else int(spec.min_length)
        generic_only = 0 if spec.problem == "mss" else 1
        probs, inv_p = _model_arrays(model)
        mats = []  # keeps each document's matrix alive across the call
        ptrs = (_PI64 * docs)()
        ns = np.empty(docs, dtype=np.int64)
        for d, index in enumerate(indexes):
            mat = np.ascontiguousarray(index.counts_matrix())
            mats.append(mat)
            ptrs[d] = mat.ctypes.data_as(_PI64)
            ns[d] = index.n
        out_best = np.empty(docs, dtype=np.float64)
        out_start = np.empty(docs, dtype=np.int64)
        out_end = np.empty(docs, dtype=np.int64)
        out_eval = np.empty(docs, dtype=np.int64)
        out_skip = np.empty(docs, dtype=np.int64)
        rc = self._lib.repro_mine_batch_best(
            ptrs, ns.ctypes.data_as(_PI64), docs, model.k,
            probs.ctypes.data_as(_PF64), inv_p.ctypes.data_as(_PF64),
            off, generic_only, ROOT_EPSILON,
            out_best.ctypes.data_as(_PF64), out_start.ctypes.data_as(_PI64),
            out_end.ctypes.data_as(_PI64), out_eval.ctypes.data_as(_PI64),
            out_skip.ctypes.data_as(_PI64),
        )
        if rc != 0:
            raise MemoryError("native mine_batch: allocation failed")
        return [
            (
                float(out_best[d]), (int(out_start[d]), int(out_end[d])),
                int(out_eval[d]), int(out_skip[d]),
            )
            for d in range(docs)
        ]

    def simulate_x2max(self, model, n, trials, seed):
        """Monte-Carlo X²max samples through the shared chunked driver
        (draws stay sequential in the driver; the per-chunk prefix build
        and scans run in C), bit-identical to the reference."""
        self._ensure()
        if self._lib is None:
            return self._numpy.simulate_x2max(model, n, trials, seed)
        return _simulate_chunked(_native_x2max_chunk, model, n, trials, seed)

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
