"""Pluggable scan/calibration kernel backends.

Every numeric hot loop in the library -- the four problem scanners, the
corpus batch path, the Monte-Carlo X²max simulation, the baselines' pair
scans and the skip profiler -- runs through a *kernel backend*:

* ``"python"`` -- the interpreted reference implementation
  (:class:`~repro.kernels.python_backend.PythonBackend`), the seed
  scanners factored into reusable row walkers;
* ``"numpy"`` -- the vectorised wavefront implementation
  (:class:`~repro.kernels.numpy_backend.NumpyBackend`), bit-identical
  results at a multiple of the speed (see
  ``benchmarks/bench_kernels.py``);
* ``"native"`` -- C kernels compiled on demand and loaded via ctypes
  (:class:`~repro.kernels.native_backend.NativeBackend`), bit-identical
  again and faster still; degrades to numpy semantics (with a
  structured warning) when no compiler or cached artifact is
  available.

Selection, most specific wins:

1. an explicit ``backend=`` argument (a name or a backend instance) on
   :func:`repro.find_mss` and friends, or ``--backend`` on the CLI;
2. the ``REPRO_BACKEND`` environment variable;
3. the default, ``"native"`` -- safe because the backends are
   bit-for-bit interchangeable (enforced by the parity test-suite), and
   a host with no C compiler and no cached artifact gets the
   bit-identical numpy fallback.  A running service reports which one
   actually serves (``backend_resolved`` on ``GET /healthz`` and
   ``GET /stats``, ``repro_backend_fallback_total`` on
   ``GET /metrics``).

Third-party backends (a C extension, a GPU port) register with
:func:`register_backend` and become selectable everywhere by name.

The backend contract
--------------------

A backend is any object with a non-empty string ``name`` and the
methods below.  ``index`` is always a
:class:`~repro.core.counts.PrefixCountIndex`, ``model`` a
:class:`~repro.core.model.BernoulliModel`; positions are half-open
``[start, end)`` over the encoded string.

**Exact parity is mandatory, not aspirational.**  Every method must
reproduce the ``"python"`` reference *bit for bit*: scores compare with
``==`` (same IEEE-754 operations in the same order -- eq. 5 with the
character accumulation in alphabet order), intervals and tie-breaks
match the reference's scan order, and the work counters are those of
the reference's sequential scan: ``evaluated`` counts substrings whose
X² was actually computed, ``skipped`` counts end positions the
chain-cover bound provably pruned (for any row entered at ``e0`` the
identity ``evaluated + skipped == n + 1 - e0`` holds).  The suite under
``tests/kernels/`` enforces all of this against the reference.

Scan methods:

``scan_mss(index, model)``
    -> ``(best, (start, end), evaluated, skipped)``.
``scan_mss_min_length(index, model, min_length)``
    -> same shape; rows start at length ``min_length``; degenerate
    ``(-1.0, (0, min_length), 0, 0)`` when ``n < min_length``.
``scan_top_t(index, model, t)``
    -> ``(heap, evaluated, skipped)``: the raw size-``t`` min-heap,
    zero-seeded with ``(0.0, -1, -1)`` sentinels (callers filter).
``scan_threshold(index, model, alpha0, limit=None, count_only=False)``
    -> ``(found, match_count, truncated, evaluated, skipped)``;
    ``found`` holds ``(x2, start, end)`` in scan order (starts
    descending, ends ascending); with ``limit`` the truncated prefix and
    stopping point must equal the reference's.
``mine_batch(indexes, model, spec)``
    -> one raw tuple per document (the matching single-document scan's
    output, in input order) for a whole corpus chunk in one call.
    ``spec`` is duck-typed (``problem``/``t``/``threshold``/
    ``min_length``/``limit``, e.g. :class:`repro.engine.jobs.JobSpec`);
    per-document parameter semantics are defined by
    :func:`repro.kernels.python_backend.mine_reference`.  Documents may
    be ragged, including empty.  A ``threshold`` spec with a ``limit``
    must truncate each document exactly where its single-document scan
    would -- same match prefix, same stopping point, same counters.
``simulate_x2max(model, n, trials, seed)``
    -> list of ``trials`` X²max samples of null strings, consuming the
    seeded RNG stream exactly as ``trials`` sequential length-``n``
    multinomial draws (one per trial, row-major) so samples match the
    reference bitwise.

Auxiliary kernels (routed baselines/analysis):

``best_over_pairs(counts_matrix, inv_p, starts, ends)``
    -> ``(best_x2, (start, end), pairs_evaluated)`` over candidate
    boundary pairs with ``start < end`` (ties: earliest pair in
    start-major order; ``-inf`` when no pair is valid).
``score_spans(index, model, starts, ends)``
    -> list of per-span X² values, elementwise.
``scan_mss_exhaustive(index, model)``
    -> ``(best, (start, end), evaluated)`` of the unpruned O(n²) scan
    (ties: earliest pair in start-ascending order).
``scan_mss_skips(index, model)``
    -> ``(records, x2max, evaluated, skipped)`` with per-visit
    ``(length, skip)`` records in scan order -- the sequential trace, so
    accelerated backends typically delegate to the reference.

>>> get_backend("python").name
'python'
>>> get_backend().name in available_backends()
True
"""

from __future__ import annotations

import difflib
import os

from repro.kernels.native_backend import NativeBackend
from repro.kernels.numpy_backend import NumpyBackend
from repro.kernels.python_backend import PythonBackend

__all__ = [
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolved_backend_name",
]

#: Environment variable consulted when no explicit backend is given.
ENV_VAR = "REPRO_BACKEND"

#: Fallback when neither an argument nor the environment chooses.
DEFAULT_BACKEND = "native"

_REGISTRY: dict[str, object] = {}


def register_backend(backend, *, replace: bool = False) -> None:
    """Register a backend instance under its ``name`` attribute.

    Third-party accelerators plug in here; ``replace=True`` allows
    shadowing an existing name (tests use this to inject probes).
    """
    name = getattr(backend, "name", None)
    if not isinstance(name, str) or not name:
        raise ValueError(
            f"backend {backend!r} must expose a non-empty string 'name'"
        )
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"backend {name!r} is already registered; pass replace=True "
            f"to shadow it"
        )
    _REGISTRY[name] = backend


def available_backends() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def get_backend(backend=None):
    """Resolve ``backend`` to a kernel backend instance.

    ``backend`` may be an instance (returned unchanged), a registered
    name, or ``None`` -- which consults :data:`ENV_VAR` and falls back
    to :data:`DEFAULT_BACKEND`.
    """
    if backend is None:
        backend = os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    if isinstance(backend, str):
        try:
            return _REGISTRY[backend]
        except KeyError:
            close = difflib.get_close_matches(
                backend, available_backends(), n=1
            )
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise ValueError(
                f"unknown kernel backend {backend!r}; available: "
                f"{', '.join(available_backends())}{hint}"
            ) from None
    if hasattr(backend, "scan_mss"):
        return backend
    raise TypeError(
        f"backend must be a name or a backend instance, got {backend!r}"
    )


def resolved_backend_name(backend=None) -> str:
    """The name of the backend that actually runs ``backend``'s kernels.

    Same as :func:`get_backend`'s ``name`` except for ``native``, which
    reports ``"numpy"`` once it has fallen back (no compiler and no
    cached artifact).  The first call for ``native`` loads the library.

    >>> resolved_backend_name("python")
    'python'
    """
    kernel = get_backend(backend)
    return getattr(kernel, "resolved_name", kernel.name)


register_backend(PythonBackend())
register_backend(NumpyBackend())
# Registration is free: NativeBackend compiles nothing until first use,
# and resolves to numpy semantics when no toolchain is available.
register_backend(NativeBackend())
