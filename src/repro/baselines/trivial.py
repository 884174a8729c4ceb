"""The trivial O(n²) algorithms: the exact reference for every problem.

The pure-Python variants are written for clarity, not speed -- they are
the oracle the property tests compare the O(n^{3/2}) scanners against,
and they deliberately do *not* route through the kernel registry (an
oracle should not share machinery with what it checks).
:func:`find_mss_trivial_numpy` does route through the backends'
``scan_mss_exhaustive`` kernel (:mod:`repro.kernels`): bit-identical to
the pure loop, fast enough for the paper's Table 1 string sizes, which
is what the comparison benchmarks use.
"""

from __future__ import annotations

import heapq
import time
from typing import Iterable

from repro._validation import ensure_finite, ensure_positive_int
from repro.core.counts import PrefixCountIndex
from repro.core.model import BernoulliModel
from repro.core.results import (
    MSSResult,
    ScanStats,
    SignificantSubstring,
    ThresholdResult,
    TopTResult,
)
from repro.kernels import get_backend

__all__ = [
    "trivial_iterations",
    "find_mss_trivial",
    "find_mss_trivial_numpy",
    "find_top_t_trivial",
    "find_above_threshold_trivial",
    "find_mss_min_length_trivial",
]


def trivial_iterations(n: int, min_length: int = 1) -> int:
    """Number of substrings the trivial scan evaluates: ``n(n+1)/2``.

    With a length floor the count is ``m(m+1)/2`` for ``m = n - min_length
    + 1``.  The complexity figures use this closed form so the trivial
    curve can be plotted without actually running O(n²) work at n = 10⁵.

    >>> trivial_iterations(4)
    10
    >>> trivial_iterations(10, min_length=8)
    6
    """
    ensure_positive_int(n, "n")
    ensure_positive_int(min_length, "min_length")
    if min_length > n:
        return 0
    m = n - min_length + 1
    return m * (m + 1) // 2


def _prepare(text: Iterable, model: BernoulliModel) -> tuple[PrefixCountIndex, int]:
    codes = model.encode(text)
    n = len(codes)
    if n == 0:
        raise ValueError("cannot mine an empty string")
    return PrefixCountIndex(codes, model.k), n


def find_mss_trivial(text: Iterable, model: BernoulliModel) -> MSSResult:
    """Exhaustive MSS scan, pure Python (the test oracle).

    >>> model = BernoulliModel.uniform("ab")
    >>> find_mss_trivial("abbba", model).best.slice("abbba")
    'bbb'
    """
    index, n = _prepare(text, model)
    prefix = index.prefix_lists
    inv_p = [1.0 / p for p in model.probabilities]
    char_range = range(model.k)
    best = -1.0
    best_start, best_end = 0, 1
    evaluated = 0
    started = time.perf_counter()
    for i in range(n):
        bases = [prefix[j][i] for j in char_range]
        for e in range(i + 1, n + 1):
            L = e - i
            total = 0.0
            for j in char_range:
                y = prefix[j][e] - bases[j]
                total += y * y * inv_p[j]
            x2 = total / L - L
            evaluated += 1
            if x2 > best:
                best = x2
                best_start, best_end = i, e
    elapsed = time.perf_counter() - started
    substring = SignificantSubstring(
        start=best_start,
        end=best_end,
        chi_square=best,
        counts=index.counts(best_start, best_end),
        alphabet_size=model.k,
    )
    stats = ScanStats(
        n=n,
        substrings_evaluated=evaluated,
        positions_skipped=0,
        start_positions=n,
        elapsed_seconds=elapsed,
    )
    return MSSResult(best=substring, stats=stats)


def find_mss_trivial_numpy(
    text: Iterable, model: BernoulliModel, *, backend=None
) -> MSSResult:
    """Exhaustive MSS scan through the vectorised exhaustive kernel.

    Bit-identical to :func:`find_mss_trivial` (tested): the scan routes
    through the backend's ``scan_mss_exhaustive`` kernel
    (:mod:`repro.kernels`), whose ``"numpy"`` implementation -- the one
    the default ``"native"`` backend delegates to -- runs the O(n²) work
    vectorised so Table 1's n = 20000 completes in seconds rather than
    minutes.
    """
    index, n = _prepare(text, model)
    kernel = get_backend(backend)
    started = time.perf_counter()
    best, (best_start, best_end), evaluated = kernel.scan_mss_exhaustive(
        index, model
    )
    elapsed = time.perf_counter() - started
    substring = SignificantSubstring(
        start=best_start,
        end=best_end,
        chi_square=best,
        counts=index.counts(best_start, best_end),
        alphabet_size=model.k,
    )
    stats = ScanStats(
        n=n,
        substrings_evaluated=evaluated,
        positions_skipped=0,
        start_positions=n,
        elapsed_seconds=elapsed,
    )
    return MSSResult(best=substring, stats=stats)


def find_top_t_trivial(text: Iterable, model: BernoulliModel, t: int) -> TopTResult:
    """Exhaustive top-t scan (min-heap over all O(n²) substrings)."""
    index, n = _prepare(text, model)
    total_substrings = n * (n + 1) // 2
    if not 1 <= t <= total_substrings:
        raise ValueError(
            f"t must be in [1, {total_substrings}] for a string of length "
            f"{n}, got {t}"
        )
    prefix = index.prefix_lists
    inv_p = [1.0 / p for p in model.probabilities]
    char_range = range(model.k)
    heap: list[tuple[float, int, int]] = []
    evaluated = 0
    started = time.perf_counter()
    for i in range(n):
        bases = [prefix[j][i] for j in char_range]
        for e in range(i + 1, n + 1):
            L = e - i
            total = 0.0
            for j in char_range:
                y = prefix[j][e] - bases[j]
                total += y * y * inv_p[j]
            x2 = total / L - L
            evaluated += 1
            if len(heap) < t:
                heapq.heappush(heap, (x2, i, e))
            elif x2 > heap[0][0]:
                heapq.heapreplace(heap, (x2, i, e))
    elapsed = time.perf_counter() - started
    found = sorted(heap, key=lambda entry: (-entry[0], entry[1]))
    substrings = [
        SignificantSubstring(
            start=start,
            end=end,
            chi_square=x2,
            counts=index.counts(start, end),
            alphabet_size=model.k,
        )
        for x2, start, end in found
    ]
    stats = ScanStats(
        n=n,
        substrings_evaluated=evaluated,
        positions_skipped=0,
        start_positions=n,
        elapsed_seconds=elapsed,
    )
    return TopTResult(substrings=substrings, stats=stats)


def find_above_threshold_trivial(
    text: Iterable, model: BernoulliModel, alpha0: float
) -> ThresholdResult:
    """Exhaustive threshold scan: every substring with ``X² > alpha0``."""
    alpha0 = ensure_finite(alpha0, "alpha0")
    if alpha0 < 0.0:
        raise ValueError(f"alpha0 must be >= 0, got {alpha0!r}")
    index, n = _prepare(text, model)
    prefix = index.prefix_lists
    inv_p = [1.0 / p for p in model.probabilities]
    char_range = range(model.k)
    found: list[tuple[float, int, int]] = []
    evaluated = 0
    started = time.perf_counter()
    for i in range(n):
        bases = [prefix[j][i] for j in char_range]
        for e in range(i + 1, n + 1):
            L = e - i
            total = 0.0
            for j in char_range:
                y = prefix[j][e] - bases[j]
                total += y * y * inv_p[j]
            x2 = total / L - L
            evaluated += 1
            if x2 > alpha0:
                found.append((x2, i, e))
    elapsed = time.perf_counter() - started
    found.sort(key=lambda entry: (-entry[0], entry[1]))
    substrings = [
        SignificantSubstring(
            start=start,
            end=end,
            chi_square=x2,
            counts=index.counts(start, end),
            alphabet_size=model.k,
        )
        for x2, start, end in found
    ]
    stats = ScanStats(
        n=n,
        substrings_evaluated=evaluated,
        positions_skipped=0,
        start_positions=n,
        elapsed_seconds=elapsed,
    )
    return ThresholdResult(substrings=substrings, stats=stats, threshold=alpha0)


def find_mss_min_length_trivial(
    text: Iterable, model: BernoulliModel, min_length: int
) -> MSSResult:
    """Exhaustive MSS scan restricted to lengths ``>= min_length``."""
    ensure_positive_int(min_length, "min_length")
    index, n = _prepare(text, model)
    if min_length > n:
        raise ValueError(f"min_length {min_length} exceeds the string length {n}")
    prefix = index.prefix_lists
    inv_p = [1.0 / p for p in model.probabilities]
    char_range = range(model.k)
    best = -1.0
    best_start, best_end = 0, min_length
    evaluated = 0
    started = time.perf_counter()
    for i in range(n - min_length + 1):
        bases = [prefix[j][i] for j in char_range]
        for e in range(i + min_length, n + 1):
            L = e - i
            total = 0.0
            for j in char_range:
                y = prefix[j][e] - bases[j]
                total += y * y * inv_p[j]
            x2 = total / L - L
            evaluated += 1
            if x2 > best:
                best = x2
                best_start, best_end = i, e
    elapsed = time.perf_counter() - started
    substring = SignificantSubstring(
        start=best_start,
        end=best_end,
        chi_square=best,
        counts=index.counts(best_start, best_end),
        alphabet_size=model.k,
    )
    stats = ScanStats(
        n=n,
        substrings_evaluated=evaluated,
        positions_skipped=0,
        start_positions=n - min_length + 1,
        elapsed_seconds=elapsed,
    )
    return MSSResult(best=substring, stats=stats)
