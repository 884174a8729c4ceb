"""Algorithm 1: finding the Most Significant Substring in O(k n^{3/2}).

The scanner walks start positions from the end of the string to the front
(as the paper's pseudocode does) and, for each start, walks end positions
left to right.  After evaluating the substring ``S[i..e]`` it computes the
chain-cover skip (:mod:`repro.core.skip`) against the running maximum
``X²_max`` and jumps the end pointer past every provably-dominated
extension.  On null-model inputs the expected skip is ``omega(sqrt(L))``
(Lemma 5), giving the paper's O(k n^{3/2}) bound overall (Lemma 6/7); on
non-null inputs ``X²_max`` is larger, the skips grow, and the scan only
gets faster (§5.1).

The scan itself is delegated to a pluggable kernel backend
(:mod:`repro.kernels`): the ``"python"`` reference walks the loops
interpreted (with a hand-tuned binary fast path for ``k = 2``, the common
case in the paper's experiments), the ``"numpy"`` backend runs the same
arithmetic as batched array operations, and the default ``"native"``
backend runs it as compiled C (falling back to numpy on a host with no
C compiler) -- bit-identical results, including the evaluated/skipped
work counters (tested).
"""

from __future__ import annotations

import time
from typing import Iterable

from repro.core.counts import PrefixCountIndex
from repro.core.model import BernoulliModel
from repro.core.results import MSSResult, ScanStats, SignificantSubstring
from repro.kernels import get_backend

__all__ = ["find_mss"]


def find_mss(
    text: Iterable, model: BernoulliModel, *, backend=None
) -> MSSResult:
    """Find the substring with the maximum chi-square value (Problem 1).

    Parameters
    ----------
    text:
        The string (or any symbol sequence) to mine.
    model:
        The null :class:`~repro.core.model.BernoulliModel`.
    backend:
        Kernel backend name or instance (default: the ``REPRO_BACKEND``
        environment variable, falling back to ``"native"``).

    Returns
    -------
    MSSResult
        ``result.best`` is the most significant substring;
        ``result.stats`` counts evaluated and skipped positions.

    Examples
    --------
    >>> model = BernoulliModel.uniform("ab")
    >>> result = find_mss("abab" + "aaaaaa" + "baba", model)
    >>> result.best.slice("abab" + "aaaaaa" + "baba")
    'aaaaaa'
    """
    codes = model.encode(text)
    n = len(codes)
    if n == 0:
        raise ValueError("cannot mine an empty string")
    kernel = get_backend(backend)
    index = PrefixCountIndex(codes, model.k)
    started = time.perf_counter()
    best, (start, end), evaluated, skipped = kernel.scan_mss(index, model)
    elapsed = time.perf_counter() - started
    substring = SignificantSubstring(
        start=start,
        end=end,
        chi_square=best,
        counts=index.counts(start, end),
        alphabet_size=model.k,
    )
    stats = ScanStats(
        n=n,
        substrings_evaluated=evaluated,
        positions_skipped=skipped,
        start_positions=n,
        elapsed_seconds=elapsed,
    )
    return MSSResult(best=substring, stats=stats)
