"""Problem 4 / §6.3: the MSS among substrings of at least a given length.

The scan is Algorithm 1 with the inner loop starting at length
``min_length`` instead of 1 (and start positions capped so at least one
qualifying substring exists).  Because the chain-cover skip grows with the
current length ``L``, long minimum lengths make the scan *faster* -- the
paper's Figure 7 shows iterations decreasing slowly with ``Gamma0`` and
then falling off rapidly as ``Gamma0`` approaches ``n``; total complexity
is ``O(k (n - Gamma0)(sqrt(n) - sqrt(Gamma0)))``.

API note: the paper's Problem 4 is phrased as "length greater than
``Gamma0``" (strict).  This module takes an *inclusive* ``min_length``
because that is the natural Python contract; ``min_length = Gamma0 + 1``
reproduces the paper exactly, and the benchmark for Figure 7 does so.

The scan is delegated to a pluggable kernel backend
(:mod:`repro.kernels`); all backends return bit-identical results.
"""

from __future__ import annotations

import time
from typing import Iterable

from repro._validation import ensure_positive_int
from repro.core.counts import PrefixCountIndex
from repro.core.model import BernoulliModel
from repro.core.results import MSSResult, ScanStats, SignificantSubstring
from repro.kernels import get_backend

__all__ = ["find_mss_min_length"]


def find_mss_min_length(
    text: Iterable, model: BernoulliModel, min_length: int, *, backend=None
) -> MSSResult:
    """Find the most significant substring of length ``>= min_length``.

    Parameters
    ----------
    text:
        The string (or symbol sequence) to mine.
    model:
        The null :class:`~repro.core.model.BernoulliModel`.
    min_length:
        Inclusive minimum substring length; must satisfy
        ``1 <= min_length <= n``.
    backend:
        Kernel backend name or instance (default: ``REPRO_BACKEND`` or
        ``"native"``).

    Examples
    --------
    >>> model = BernoulliModel.uniform("ab")
    >>> text = "abababababbbab"
    >>> find_mss_min_length(text, model, 6).best.length >= 6
    True
    """
    ensure_positive_int(min_length, "min_length")
    codes = model.encode(text)
    n = len(codes)
    if n == 0:
        raise ValueError("cannot mine an empty string")
    if min_length > n:
        raise ValueError(
            f"min_length {min_length} exceeds the string length {n}"
        )
    kernel = get_backend(backend)
    index = PrefixCountIndex(codes, model.k)
    started = time.perf_counter()
    best, (best_start, best_end), evaluated, skipped = (
        kernel.scan_mss_min_length(index, model, min_length)
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
        positions_skipped=skipped,
        start_positions=n - min_length + 1,
        elapsed_seconds=elapsed,
    )
    return MSSResult(best=substring, stats=stats)
