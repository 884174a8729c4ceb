"""The pure-Python reference kernels.

This module is the semantic ground truth for every scan: the arithmetic
here is the paper's Algorithm 1-3 exactly as the seed implementation
wrote it (see :mod:`repro.core.mss` for the derivation), factored into
*row walkers* -- one call walks every end position of a single start
position ``i``, applying the chain-cover skip after each evaluation.

The row walkers serve two masters:

* :class:`PythonBackend` loops them over all start positions -- the
  reference backend, byte-identical to the seed scanners;
* the numpy backend calls them for the handful of rows it cannot batch
  (the short "head" rows that establish the pruning bound, and rows in
  which the bound provably updates), which is what makes the two
  backends *bit-for-bit* interchangeable rather than merely
  approximately equal.

Floating-point discipline: every expression is written (and must stay)
in exactly the evaluation order of the seed scanners, because the numpy
backend replicates that order elementwise and the parity tests assert
``==`` on the results, not ``isclose``.
"""

from __future__ import annotations

import heapq
import math

from repro.core.skip import ROOT_EPSILON as _EPS
from repro.core.skip import max_safe_skip
from repro.generators.base import resolve_rng
from repro.generators.null import generate_null

__all__ = ["PythonBackend", "mine_reference"]


def mine_reference(backend, index, model, spec):
    """Run one document's configured problem through ``backend``'s scans.

    This is the shared per-document dispatch used by every backend's
    ``mine_batch``: given a duck-typed ``spec`` (any object exposing
    ``problem``/``t``/``threshold``/``min_length``/``limit``, e.g.
    :class:`repro.engine.jobs.JobSpec`), it calls the matching
    single-document scan and returns its raw output tuple unchanged.

    Per-document parameter semantics (part of the ``mine_batch``
    contract):

    * ``"top"`` caps the heap size at the document's substring count,
      ``t_d = min(spec.t, n (n + 1) / 2)``;
    * ``"minlength"`` runs the scan even when the floor exceeds the
      document length, yielding the scan's degenerate
      ``(-1.0, (0, min_length), 0, 0)`` -- callers that want "no
      qualifying substring" filter such documents before batching;
    * ``"threshold"`` forwards ``spec.limit`` verbatim (``None`` means
      unlimited) and always materialises matches.
    """
    problem = spec.problem
    if problem == "mss":
        return backend.scan_mss(index, model)
    if problem == "top":
        n = index.n
        return backend.scan_top_t(index, model, min(spec.t, n * (n + 1) // 2))
    if problem == "threshold":
        return backend.scan_threshold(index, model, spec.threshold,
                                      limit=spec.limit)
    if problem == "minlength":
        return backend.scan_mss_min_length(index, model, spec.min_length)
    raise ValueError(f"unknown problem {problem!r}")


# ----------------------------------------------------------------------
# Row walkers: one start position, every end position.
# ----------------------------------------------------------------------

def mss_row_binary(pref1, n, i, e, best, best_start, best_end, p0, p1):
    """Walk row ``i`` of the binary (k = 2) MSS scan from end ``e``.

    Returns ``(best, best_start, best_end, evaluated, skipped, )`` with
    the running maximum updated in place of the caller's.
    """
    sqrt = math.sqrt
    inv_lp = 1.0 / (p0 * p1)
    two_p0 = 2.0 * p0
    two_p1 = 2.0 * p1
    base = pref1[i]
    evaluated = 0
    skipped = 0
    while e <= n:
        L = e - i
        y1 = pref1[e] - base
        d = y1 - L * p1
        x2 = d * d * inv_lp / L
        evaluated += 1
        if x2 > best:
            best = x2
            best_start = i
            best_end = e
        # Chain-cover skip: min over the two per-character roots.
        c_common = (x2 - best) * L
        y0 = L - y1
        b0 = 2.0 * y0 - L * two_p0 - p0 * best
        c0 = c_common * p0
        r0 = (-b0 + sqrt(b0 * b0 - 4.0 * p1 * c0)) / (2.0 * p1)
        b1 = 2.0 * y1 - L * two_p1 - p1 * best
        c1 = c_common * p1
        r1 = (-b1 + sqrt(b1 * b1 - 4.0 * p0 * c1)) / (2.0 * p0)
        root = r0 if r0 < r1 else r1
        if root >= 1.0:
            jump = int(root - _EPS)
            if e + jump > n:
                jump = n - e
            skipped += jump
            e += jump + 1
        else:
            e += 1
    return best, best_start, best_end, evaluated, skipped


def mss_row_generic(prefix, n, i, e, best, best_start, best_end, probabilities, inv_p):
    """Walk row ``i`` of the generic-alphabet MSS scan from end ``e``.

    Also the Problem 4 row walker: ``find_mss_min_length`` is this scan
    with ``e`` starting at ``i + min_length``.
    """
    sqrt = math.sqrt
    k = len(probabilities)
    char_range = range(k)
    bases = [prefix[j][i] for j in char_range]
    counts = [0] * k
    evaluated = 0
    skipped = 0
    while e <= n:
        L = e - i
        total = 0.0
        for j in char_range:
            y = prefix[j][e] - bases[j]
            counts[j] = y
            total += y * y * inv_p[j]
        x2 = total / L - L
        evaluated += 1
        if x2 > best:
            best = x2
            best_start = i
            best_end = e
        c_common = (x2 - best) * L
        root = math.inf
        for j in char_range:
            p = probabilities[j]
            a = 1.0 - p
            b = 2.0 * counts[j] - 2.0 * L * p - p * best
            c = c_common * p
            r = (-b + sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
            if r < root:
                root = r
                if root < 1.0:
                    break
        if root >= 1.0:
            jump = int(root - _EPS)
            if e + jump > n:
                jump = n - e
            skipped += jump
            e += jump + 1
        else:
            e += 1
    return best, best_start, best_end, evaluated, skipped


def topt_row(prefix, n, i, e, heap, bound, probabilities, inv_p):
    """Walk row ``i`` of the top-t scan; mutates ``heap`` in place.

    Returns ``(bound, evaluated, skipped)`` -- the t-th best value after
    the row, i.e. the heap root.
    """
    sqrt = math.sqrt
    k = len(probabilities)
    char_range = range(k)
    bases = [prefix[j][i] for j in char_range]
    counts = [0] * k
    evaluated = 0
    skipped = 0
    while e <= n:
        L = e - i
        total = 0.0
        for j in char_range:
            y = prefix[j][e] - bases[j]
            counts[j] = y
            total += y * y * inv_p[j]
        x2 = total / L - L
        evaluated += 1
        if x2 > bound:
            heapq.heapreplace(heap, (x2, i, e))
            bound = heap[0][0]
        if x2 <= bound:
            # Chain-cover skip against the t-th best value.
            c_common = (x2 - bound) * L
            root = math.inf
            for j in char_range:
                p = probabilities[j]
                a = 1.0 - p
                b = 2.0 * counts[j] - 2.0 * L * p - p * bound
                c = c_common * p
                r = (-b + sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
                if r < root:
                    root = r
                    if root < 1.0:
                        break
            if root >= 1.0:
                jump = int(root - _EPS)
                if e + jump > n:
                    jump = n - e
                skipped += jump
                e += jump + 1
                continue
        e += 1
    return bound, evaluated, skipped


def threshold_row(prefix, n, i, e, alpha0, probabilities, inv_p, found,
                  limit, count_only):
    """Walk row ``i`` of the threshold scan; appends matches to ``found``.

    Returns ``(evaluated, skipped, match_count, truncated)``; the caller
    stops the whole scan when ``truncated`` is True (the shared ``found``
    list hit ``limit``).
    """
    sqrt = math.sqrt
    k = len(probabilities)
    char_range = range(k)
    bases = [prefix[j][i] for j in char_range]
    counts = [0] * k
    evaluated = 0
    skipped = 0
    match_count = 0
    truncated = False
    while e <= n:
        L = e - i
        total = 0.0
        for j in char_range:
            y = prefix[j][e] - bases[j]
            counts[j] = y
            total += y * y * inv_p[j]
        x2 = total / L - L
        evaluated += 1
        if x2 > alpha0:
            match_count += 1
            if not count_only:
                found.append((x2, i, e))
                if limit is not None and len(found) >= limit:
                    truncated = True
                    break
            # The current substring qualifies: neighbours may too, so
            # no skip is provable.  Advance by one.
            e += 1
            continue
        c_common = (x2 - alpha0) * L
        root = math.inf
        for j in char_range:
            p = probabilities[j]
            a = 1.0 - p
            b = 2.0 * counts[j] - 2.0 * L * p - p * alpha0
            c = c_common * p
            r = (-b + sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
            if r < root:
                root = r
                if root < 1.0:
                    break
        if root >= 1.0:
            jump = int(root - _EPS)
            if e + jump > n:
                jump = n - e
            skipped += jump
            e += jump + 1
        else:
            e += 1
    return evaluated, skipped, match_count, truncated


# ----------------------------------------------------------------------
# The backend: reference scans assembled from the row walkers.
# ----------------------------------------------------------------------

class PythonBackend:
    """Interpreted reference kernels (the seed implementation's scans)."""

    name = "python"

    def scan_mss(self, index, model):
        """Full MSS scan.  Returns ``(best, (start, end), evaluated, skipped)``."""
        n = index.n
        best = -1.0
        best_start = 0
        best_end = 1
        evaluated = 0
        skipped = 0
        if model.k == 2:
            pref1 = index.prefix_lists[1]
            p0, p1 = model.probabilities
            for i in range(n - 1, -1, -1):
                best, best_start, best_end, d_ev, d_sk = mss_row_binary(
                    pref1, n, i, i + 1, best, best_start, best_end, p0, p1
                )
                evaluated += d_ev
                skipped += d_sk
        else:
            prefix = index.prefix_lists
            probabilities = model.probabilities
            inv_p = [1.0 / p for p in probabilities]
            for i in range(n - 1, -1, -1):
                best, best_start, best_end, d_ev, d_sk = mss_row_generic(
                    prefix, n, i, i + 1, best, best_start, best_end,
                    probabilities, inv_p,
                )
                evaluated += d_ev
                skipped += d_sk
        return best, (best_start, best_end), evaluated, skipped

    def scan_mss_min_length(self, index, model, min_length):
        """Problem 4 scan (generic arithmetic for every k, as the seed did)."""
        n = index.n
        prefix = index.prefix_lists
        probabilities = model.probabilities
        inv_p = [1.0 / p for p in probabilities]
        best = -1.0
        best_start = 0
        best_end = min_length
        evaluated = 0
        skipped = 0
        for i in range(n - min_length, -1, -1):
            best, best_start, best_end, d_ev, d_sk = mss_row_generic(
                prefix, n, i, i + min_length, best, best_start, best_end,
                probabilities, inv_p,
            )
            evaluated += d_ev
            skipped += d_sk
        return best, (best_start, best_end), evaluated, skipped

    def scan_top_t(self, index, model, t):
        """Top-t scan.  Returns ``(heap, evaluated, skipped)`` -- the raw
        size-t heap including any ``(0.0, -1, -1)`` sentinel seeds."""
        n = index.n
        prefix = index.prefix_lists
        probabilities = model.probabilities
        inv_p = [1.0 / p for p in probabilities]
        heap: list[tuple[float, int, int]] = [(0.0, -1, -1)] * t
        bound = 0.0
        evaluated = 0
        skipped = 0
        for i in range(n - 1, -1, -1):
            bound, d_ev, d_sk = topt_row(
                prefix, n, i, i + 1, heap, bound, probabilities, inv_p
            )
            evaluated += d_ev
            skipped += d_sk
        return heap, evaluated, skipped

    def scan_threshold(self, index, model, alpha0, limit=None, count_only=False):
        """Threshold scan.  Returns
        ``(found, match_count, truncated, evaluated, skipped)``."""
        n = index.n
        prefix = index.prefix_lists
        probabilities = model.probabilities
        inv_p = [1.0 / p for p in probabilities]
        found: list[tuple[float, int, int]] = []
        match_count = 0
        truncated = False
        evaluated = 0
        skipped = 0
        for i in range(n - 1, -1, -1):
            d_ev, d_sk, d_match, truncated = threshold_row(
                prefix, n, i, i + 1, alpha0, probabilities, inv_p, found,
                limit, count_only,
            )
            evaluated += d_ev
            skipped += d_sk
            match_count += d_match
            if truncated:
                break
        return found, match_count, truncated, evaluated, skipped

    def mine_batch(self, indexes, model, spec):
        """Mine many documents in one call: the per-document reference loop.

        ``indexes`` is a sequence of
        :class:`~repro.core.counts.PrefixCountIndex` values (documents may
        be ragged, including empty); ``spec`` is any object exposing
        ``problem``/``t``/``threshold``/``min_length``/``limit`` (see
        :func:`mine_reference`).  Returns one raw scan tuple per document,
        in input order -- exactly what the matching single-document scan
        would have returned, because that is literally what runs.  The
        vectorised backends must reproduce this output bit for bit.
        """
        return [mine_reference(self, index, model, spec) for index in indexes]

    def best_over_pairs(self, counts_matrix, inv_p, starts, ends):
        """Reference maximum-X² search over candidate boundary pairs.

        ``counts_matrix`` is the ``(k, n + 1)`` prefix matrix, ``inv_p``
        the per-character ``1 / p_j`` weights; ``starts``/``ends`` are
        candidate positions (deduplicated and sorted here).  Returns
        ``(best_x2, (start, end), pairs_evaluated)`` with ``best_x2 =
        -inf`` when no pair satisfies ``start < end``.  Ties resolve to
        the earliest pair in (start, end) iteration order.
        """
        import numpy as np

        start_list = np.unique(np.asarray(starts, dtype=np.int64)).tolist()
        end_list = np.unique(np.asarray(ends, dtype=np.int64)).tolist()
        rows = np.asarray(counts_matrix).tolist()
        inv = [float(v) for v in inv_p]
        k = len(rows)
        best = -math.inf
        best_pair = (0, 0)
        evaluated = 0
        for s in start_list:
            for e in end_list:
                length = e - s
                if length <= 0:
                    continue
                total = 0.0
                for j in range(k):
                    y = rows[j][e] - rows[j][s]
                    total += y * y * inv[j]
                x2 = total / length - length
                evaluated += 1
                if x2 > best:
                    best = x2
                    best_pair = (s, e)
        return best, best_pair, evaluated

    def score_spans(self, index, model, starts, ends):
        """X² of each span ``(starts[m], ends[m])``, elementwise.

        Spans must satisfy ``start < end``.  Returns a list of floats in
        input order; the arithmetic is the scanners' (eq. 5 with the
        character loop in alphabet order), so the values are bit-equal to
        what a scan evaluating the same spans would produce.
        """
        prefix = index.prefix_lists
        probabilities = model.probabilities
        inv_p = [1.0 / p for p in probabilities]
        char_range = range(len(probabilities))
        out: list[float] = []
        for s, e in zip(list(starts), list(ends)):
            s = int(s)
            e = int(e)
            length = e - s
            total = 0.0
            for j in char_range:
                y = prefix[j][e] - prefix[j][s]
                total += y * y * inv_p[j]
            out.append(total / length - length)
        return out

    def scan_mss_exhaustive(self, index, model):
        """Exhaustive O(n²) MSS scan (no pruning): the trivial baseline.

        Returns ``(best, (start, end), evaluated)`` with ``evaluated =
        n (n + 1) / 2``.  Ties resolve to the earliest (start, end) in
        start-ascending, end-ascending order -- the trivial scan's own
        rule, which differs from the pruned scanners' reverse-start
        order.
        """
        n = index.n
        prefix = index.prefix_lists
        probabilities = model.probabilities
        inv_p = [1.0 / p for p in probabilities]
        char_range = range(len(probabilities))
        best = -1.0
        best_start, best_end = 0, 1
        evaluated = 0
        for i in range(n):
            bases = [prefix[j][i] for j in char_range]
            for e in range(i + 1, n + 1):
                length = e - i
                total = 0.0
                for j in char_range:
                    y = prefix[j][e] - bases[j]
                    total += y * y * inv_p[j]
                x2 = total / length - length
                evaluated += 1
                if x2 > best:
                    best = x2
                    best_start, best_end = i, e
        return best, (best_start, best_end), evaluated

    def scan_mss_skips(self, index, model):
        """Instrumented MSS scan recording every skip decision.

        Returns ``(records, x2max, evaluated, skipped)`` where
        ``records`` lists ``(substring length, skip taken)`` for every
        evaluated substring, in scan order.  The skip algebra is
        :func:`repro.core.skip.max_safe_skip` (clarity over speed); the
        visit set equals the production scanner's.  Profiling is
        inherently sequential -- the records *are* the sequential trace --
        so every backend shares this reference implementation.
        """
        n = index.n
        prefix = index.prefix_lists
        probabilities = model.probabilities
        k = len(probabilities)
        inv_p = [1.0 / p for p in probabilities]
        char_range = range(k)
        best = -1.0
        evaluated = 0
        skipped = 0
        records: list[tuple[int, int]] = []
        for i in range(n - 1, -1, -1):
            bases = [prefix[j][i] for j in char_range]
            e = i + 1
            while e <= n:
                length = e - i
                counts = [prefix[j][e] - bases[j] for j in char_range]
                total = 0.0
                for j in char_range:
                    total += counts[j] * counts[j] * inv_p[j]
                x2 = total / length - length
                evaluated += 1
                if x2 > best:
                    best = x2
                skip = max_safe_skip(counts, length, probabilities, x2, best)
                if e + skip > n:
                    skip = n - e
                records.append((length, skip))
                skipped += skip
                e += skip + 1
        return records, best, evaluated, skipped

    def simulate_x2max(self, model, n, trials, seed, executor=None):
        """Monte-Carlo X²max samples: ``trials`` sequential null scans.

        Draws consume the RNG stream exactly as the seed implementation
        did (one length-``n`` multinomial draw per trial); the scan runs
        directly on the encoded draw, skipping the historical
        decode/encode round-trip, which cannot change the counts.  The
        scans run on the calling thread; ``executor`` is ignored.
        """
        from repro.core.counts import PrefixCountIndex

        rng = resolve_rng(seed)
        samples = []
        for _ in range(trials):
            codes = generate_null(model, n, seed=rng)
            index = PrefixCountIndex(codes, model.k)
            best, _, _, _ = self.scan_mss(index, model)
            samples.append(best)
        return samples

    def __repr__(self) -> str:
        return "PythonBackend()"
