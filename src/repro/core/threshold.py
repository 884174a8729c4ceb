"""Algorithm 3: all substrings with chi-square above a threshold.

The pruning bound is the fixed threshold ``alpha0`` itself: an end
position can be skipped exactly when the chain cover of the current
substring provably stays at or below ``alpha0``.  When the *current*
substring already qualifies (``X² > alpha0``) no skip is safe -- its
immediate extensions may qualify too -- so the scan advances one position,
reproducing the ``max{ceil(.), 1}`` of the paper's pseudocode while
remaining exact.

Complexity (§6.2): O(k n²) when ``alpha0`` is below the string's typical
X² level, dropping sharply to O(k n sqrt(n / alpha0)) once ``alpha0``
clears it -- Figure 6 plots exactly this curve, regenerated by
``benchmarks/bench_fig6_threshold.py``.

A practitioner mining at significance level ``alpha`` should pass
``alpha0 = chi2_critical_value(alpha, k - 1)`` -- see
:func:`repro.stats.chi2dist.chi2_critical_value`.

The scan is delegated to a pluggable kernel backend
(:mod:`repro.kernels`); because the bound never moves, this is the
easiest scan to vectorise, and all backends agree exactly -- including
on which matches are reported when ``limit`` truncates the scan.
"""

from __future__ import annotations

import time
from typing import Iterable

from repro._validation import ensure_finite
from repro.core.counts import PrefixCountIndex
from repro.core.model import BernoulliModel
from repro.core.results import ScanStats, SignificantSubstring, ThresholdResult
from repro.kernels import get_backend

__all__ = ["find_above_threshold"]


def find_above_threshold(
    text: Iterable,
    model: BernoulliModel,
    alpha0: float,
    *,
    limit: int | None = None,
    count_only: bool = False,
    backend=None,
) -> ThresholdResult:
    """Find every substring with ``X² > alpha0`` (Problem 3).

    Parameters
    ----------
    text:
        The string (or symbol sequence) to mine.
    model:
        The null :class:`~repro.core.model.BernoulliModel`.
    alpha0:
        The chi-square threshold (strict).  Must be non-negative -- every
        substring satisfies ``X² >= 0``, so a negative threshold would
        simply enumerate all O(n²) substrings.
    limit:
        Optional cap on the number of returned substrings.  A low
        threshold on a long string can qualify millions of substrings;
        when the cap is hit the scan stops and the result is flagged
        ``truncated``.
    count_only:
        When True, qualifying substrings are counted
        (``result.matches``) but not materialised -- the scan completes
        in O(1) memory regardless of how many substrings qualify.  The
        complexity benchmarks (Figure 6) use this.
    backend:
        Kernel backend name or instance (default: ``REPRO_BACKEND`` or
        ``"native"``).

    Examples
    --------
    >>> model = BernoulliModel.uniform("ab")
    >>> result = find_above_threshold("abaaaaab", model, 4.0)
    >>> all(s.chi_square > 4.0 for s in result)
    True
    """
    alpha0 = ensure_finite(alpha0, "alpha0")
    if alpha0 < 0.0:
        raise ValueError(
            f"alpha0 must be >= 0 (X² is never negative), got {alpha0!r}"
        )
    if limit is not None and limit <= 0:
        raise ValueError(f"limit must be positive when given, got {limit!r}")
    codes = model.encode(text)
    n = len(codes)
    if n == 0:
        raise ValueError("cannot mine an empty string")
    kernel = get_backend(backend)
    index = PrefixCountIndex(codes, model.k)
    started = time.perf_counter()
    found, match_count, truncated, evaluated, skipped = kernel.scan_threshold(
        index, model, alpha0, limit=None if count_only else limit,
        count_only=count_only,
    )
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
        positions_skipped=skipped,
        start_positions=n,
        elapsed_seconds=elapsed,
    )
    return ThresholdResult(
        substrings=substrings,
        stats=stats,
        threshold=alpha0,
        truncated=truncated,
        match_count=match_count,
    )
