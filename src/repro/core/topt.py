"""Algorithm 2: the top-t most significant substrings.

Identical scan structure to :mod:`repro.core.mss`, but the pruning bound
is the *t-th largest* X² seen so far, maintained as the root of a size-t
min-heap (the paper seeds the heap with ``t`` zeros; so do we).  Each
inner iteration therefore costs O(k + log t), for a total of
O((k + log t) n^{3/2}) when ``t < omega(n)`` (§6.1, Lemma 8).

Skipped substrings have X² no greater than the current t-th value, so the
returned multiset of X² values is exact; tied intervals at the cut-off are
an arbitrary choice, exactly as in the trivial enumeration.  The scan is
delegated to a pluggable kernel backend (:mod:`repro.kernels`); every
backend returns the identical multiset.
"""

from __future__ import annotations

import time
from typing import Iterable

from repro.core.counts import PrefixCountIndex
from repro.core.model import BernoulliModel
from repro.core.results import ScanStats, SignificantSubstring, TopTResult
from repro.kernels import get_backend

__all__ = ["find_top_t"]


def find_top_t(
    text: Iterable, model: BernoulliModel, t: int, *, backend=None
) -> TopTResult:
    """Find the ``t`` substrings with the largest chi-square values (Problem 2).

    Parameters
    ----------
    text:
        The string (or symbol sequence) to mine.
    model:
        The null :class:`~repro.core.model.BernoulliModel`.
    t:
        How many substrings to return; must satisfy
        ``1 <= t <= n (n + 1) / 2``.
    backend:
        Kernel backend name or instance (default: ``REPRO_BACKEND`` or
        ``"native"``).

    Examples
    --------
    >>> model = BernoulliModel.uniform("ab")
    >>> result = find_top_t("abbbba", model, 3)
    >>> len(result.substrings)
    3
    >>> result.values == sorted(result.values, reverse=True)
    True
    """
    codes = model.encode(text)
    n = len(codes)
    if n == 0:
        raise ValueError("cannot mine an empty string")
    total_substrings = n * (n + 1) // 2
    if not isinstance(t, int) or isinstance(t, bool):
        raise TypeError(f"t must be an int, got {type(t).__name__}")
    if not 1 <= t <= total_substrings:
        raise ValueError(
            f"t must be in [1, {total_substrings}] for a string of length "
            f"{n}, got {t}"
        )
    kernel = get_backend(backend)
    index = PrefixCountIndex(codes, model.k)
    started = time.perf_counter()
    heap, evaluated, skipped = kernel.scan_top_t(index, model, t)
    elapsed = time.perf_counter() - started

    # The heap seeds carry a sentinel interval; filter them out.
    found = [entry for entry in heap if entry[1] >= 0]
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
    return TopTResult(substrings=substrings, stats=stats)
