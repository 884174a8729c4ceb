"""Vectorised scan kernels: the wavefront algorithm.

The paper's scanner is a doubly-nested loop whose inner iteration count
is only O(n^{3/2}) thanks to the chain-cover skip -- but every one of
those iterations is interpreted Python in the reference backend.  This
module batches them.

**The wavefront.**  Fix the pruning bound ``B``.  Then every start
position's walk over its end positions is *independent*: the skip root
at ``(i, e)`` depends only on the prefix counts and ``B``.  So the scan
is run as a set of *lanes* -- one lane per start position -- advanced in
lockstep: one numpy "step" gathers the prefix counts at every lane's
current end position, evaluates all their X² values, their skip roots
and their jumps in a handful of array operations, and retires lanes that
run off the end of the string.  The number of steps is the *maximum*
number of evaluations any lane needs, while the interpreted backend pays
for the *sum*.

**Exactness.**  The bound is only fixed until some evaluation beats it
(Algorithm 1 line 8).  Such a position can never be jumped over -- the
chain-cover argument only ever skips positions whose X² is at most the
current bound -- so a two-pass scheme recovers the exact sequential
semantics:

1. *Discovery pass*: run all lanes of a block of start positions with
   the bound frozen at its block-entry value, recording every visit that
   exceeds it (a superset of the true bound updates, each of which is
   provably visited).
2. If nothing exceeded, the discovery pass *was* the exact scan: commit
   its counters.  Otherwise replay the block: a scan-order simulation of
   the recorded exceedances pins down exactly which rows update the
   bound; those few rows are walked by the scalar reference row walkers
   (:mod:`repro.kernels.python_backend`), and the runs of rows between
   them -- whose bounds are now known constants -- are re-run as exact
   wavefronts.

Because bound updates cluster in the earliest (shortest) start
positions, the first :data:`_HEAD_ROWS` rows are walked scalar to let
the bound ramp up, and block sizes double from :data:`_FIRST_BLOCK` so a
late update never forces a large replay.

**One sweep per problem.**  :func:`_run_batched_sweep` runs the mss,
minlength and top-t scans, and ``NumpyBackend._mine_batch_threshold``
the threshold scan, over one document or many at once: ``mine_batch``
hands them a corpus chunk, and each single-document ``scan_*`` method
is a one-document batch.  A lone document's passes run on plain scalars
(no per-lane offsets, tags or per-step counts by tag).

Every arithmetic expression below is written in the same evaluation
order as the scalar walkers, and numpy's float64 element operations are
IEEE-754-identical to CPython's -- so the two backends agree *bitwise*
on scores, intervals, evaluation and skip counters (asserted by
``tests/kernels/test_backend_parity.py``).

Skip accounting needs no per-lane bookkeeping: a lane entering at
``e0`` always leaves at ``n + 1``, and every evaluation advances it by
``1 + jump``, so ``skipped = (n + 1 - e0) - evaluated`` summed over
lanes -- the identity the commit paths use.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.generators.base import resolve_rng
from repro.kernels.python_backend import (
    _EPS,
    PythonBackend,
    mss_row_binary,
    mss_row_generic,
    threshold_row,
    topt_row,
)

__all__ = ["NumpyBackend"]

#: Rows walked by the scalar reference before vectorising: the pruning
#: bound does most of its climbing in the first (shortest) rows, and a
#: scalar head keeps those bound updates out of the replay machinery.
_HEAD_ROWS = 64

#: First vectorised block size; blocks double from here so early bound
#: updates replay only small blocks while the bulk of the string is
#: covered by a few large, cheap passes.
_FIRST_BLOCK = 64

#: First block size for the Monte-Carlo kernel (smaller: per-trial
#: bounds ramp inside the blocked sweep itself, there is no scalar head).
_CALIB_FIRST_BLOCK = 16

#: Replay phases of fewer rows than this (summed over the replaying
#: documents) go through the scalar row walkers: a wavefront pass has a
#: per-step overhead that only pays off once enough lanes advance
#: together.
_SCALAR_GAP = 48

#: Element budget (k * (n + 1) * trials) per calibration chunk, bounding
#: the stacked prefix matrices to ~64 MB.
_CALIB_CHUNK_ELEMS = 8 * 2**20

_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)


def _lane_pass_binary(pref1, n, i_arr, e_arr, off, bound, p0, p1,
                      *, collect, lane_tag=None, eval_by_tag=None):
    """Advance binary-MSS lanes to completion under a frozen bound.

    ``pref1`` is the flat ``int64`` prefix-count array of symbol 1 --
    ``(n + 1,)`` for a single string (``off is None``) or the
    concatenation of ``T`` such arrays with ``off`` holding each lane's
    base offset.  ``n`` is the string length -- a scalar, or a per-lane
    ``int64`` array when lanes span ragged documents (``mine_batch``).
    ``bound`` is a float or a per-lane float64 array.

    With ``collect`` the pass records every visit whose X² exceeds the
    bound (using ``max(bound, x2)`` -- a legal chain-cover bound -- for
    that visit's own skip); without it the caller guarantees no visit
    exceeds, making the pass an exact replay.

    ``eval_by_tag``, when given alongside ``lane_tag``, is an ``int64``
    array accumulating each tag's evaluation count in place -- how the
    batched corpus sweep splits the lane identity per document.

    Returns ``(evaluated, cand_i, cand_e, cand_x, cand_tag)``.
    """
    inv_lp = 1.0 / (p0 * p1)
    two_p0 = 2.0 * p0
    two_p1 = 2.0 * p1
    bound_is_array = isinstance(bound, np.ndarray)
    n_is_array = isinstance(n, np.ndarray)
    base = pref1[i_arr if off is None else off + i_arr]
    cand_i: list[np.ndarray] = []
    cand_e: list[np.ndarray] = []
    cand_x: list[np.ndarray] = []
    cand_t: list[np.ndarray] = []
    evaluated = 0
    while e_arr.size:
        L = e_arr - i_arr
        y1 = pref1[e_arr if off is None else off + e_arr] - base
        d = y1 - L * p1
        x2 = (d * d) * inv_lp / L
        evaluated += e_arr.size
        if eval_by_tag is not None:
            eval_by_tag += np.bincount(lane_tag, minlength=eval_by_tag.size)
        if collect:
            exceed = x2 > bound
            if exceed.any():
                idx = np.nonzero(exceed)[0]
                cand_i.append(i_arr[idx])
                cand_e.append(e_arr[idx])
                cand_x.append(x2[idx])
                if lane_tag is not None:
                    cand_t.append(lane_tag[idx])
                # Tighten each lane's own bound: a lane's past
                # exceedances precede its current position in scan
                # order, so they lower-bound the true pruning bound
                # there -- skips stay conservative, visits shrink.
                bound = np.maximum(bound, x2)
                bound_is_array = True
        beff = bound
        c_common = (x2 - beff) * L
        y0 = L - y1
        b0 = 2.0 * y0 - L * two_p0 - p0 * beff
        c0 = c_common * p0
        r0 = (-b0 + np.sqrt(b0 * b0 - 4.0 * p1 * c0)) / (2.0 * p1)
        b1 = 2.0 * y1 - L * two_p1 - p1 * beff
        c1 = c_common * p1
        r1 = (-b1 + np.sqrt(b1 * b1 - 4.0 * p0 * c1)) / (2.0 * p0)
        root = np.minimum(r0, r1)
        jump = np.where(root >= 1.0, root - _EPS, 0.0).astype(np.int64)
        np.minimum(jump, n - e_arr, out=jump)
        e_arr = e_arr + jump + 1
        alive = e_arr <= n
        if not alive.all():
            e_arr = e_arr[alive]
            i_arr = i_arr[alive]
            base = base[alive]
            if off is not None:
                off = off[alive]
            if bound_is_array:
                bound = bound[alive]
            if n_is_array:
                n = n[alive]
            if lane_tag is not None:
                lane_tag = lane_tag[alive]
    return (
        evaluated,
        np.concatenate(cand_i) if cand_i else _EMPTY_I,
        np.concatenate(cand_e) if cand_e else _EMPTY_I,
        np.concatenate(cand_x) if cand_x else _EMPTY_F,
        np.concatenate(cand_t) if cand_t else _EMPTY_I,
    )


def _lane_pass_generic(mat, n, i_arr, e_arr, off, bound, probabilities,
                       *, collect, exceed_unit=False, store=True,
                       lane_tag=None, eval_by_tag=None):
    """Advance generic-alphabet lanes to completion under a frozen bound.

    ``mat`` is the ``(k, m)`` flat prefix matrix (``m = n + 1`` for a
    single string; ragged documents concatenate their matrices and pass
    per-lane ``off`` base offsets and a per-lane ``n`` array).
    ``exceed_unit`` selects the threshold semantics at
    exceeding visits -- advance one position, no skip -- instead of the
    discovery semantics (skip with the visit's own X² as bound);
    ``store=False`` counts exceedances without materialising them
    (``count_only`` threshold scans).  ``eval_by_tag`` (with
    ``lane_tag``) accumulates per-tag evaluation counts in place.

    Returns ``(evaluated, exceed_count, cand_i, cand_e, cand_x, cand_tag)``.
    """
    k = len(probabilities)
    p_col = np.asarray(probabilities, dtype=np.float64)[:, None]
    a_col = 1.0 - p_col
    four_a = 4.0 * a_col
    two_a = 2.0 * a_col
    inv_p = [1.0 / p for p in probabilities]
    bound_is_array = isinstance(bound, np.ndarray)
    n_is_array = isinstance(n, np.ndarray)
    bases = mat[:, i_arr if off is None else off + i_arr]
    cand_i: list[np.ndarray] = []
    cand_e: list[np.ndarray] = []
    cand_x: list[np.ndarray] = []
    cand_t: list[np.ndarray] = []
    evaluated = 0
    exceed_count = 0
    with np.errstate(invalid="ignore"):
        while e_arr.size:
            L = e_arr - i_arr
            y = mat[:, e_arr if off is None else off + e_arr] - bases
            total = (y[0] * y[0]) * inv_p[0]
            for j in range(1, k):
                total = total + (y[j] * y[j]) * inv_p[j]
            x2 = total / L - L
            evaluated += e_arr.size
            if eval_by_tag is not None:
                eval_by_tag += np.bincount(lane_tag, minlength=eval_by_tag.size)
            exceed = None
            if collect:
                exceed = x2 > bound
                if exceed.any():
                    exceed_count += int(exceed.sum())
                    if store:
                        idx = np.nonzero(exceed)[0]
                        cand_i.append(i_arr[idx])
                        cand_e.append(e_arr[idx])
                        cand_x.append(x2[idx])
                        if lane_tag is not None:
                            cand_t.append(lane_tag[idx])
                    if not exceed_unit:
                        # Per-lane bound tightening (see the binary pass).
                        bound = np.maximum(bound, x2)
                        bound_is_array = True
                        exceed = None
                elif not exceed_unit:
                    exceed = None
            beff = bound
            c_common = (x2 - beff) * L
            b = 2.0 * y - (2.0 * L) * p_col - p_col * beff
            c = c_common * p_col
            r = (-b + np.sqrt(b * b - four_a * c)) / two_a
            root = np.minimum.reduce(r, axis=0)
            if exceed_unit and exceed is not None:
                # Qualifying visits advance by one (their quadratic may
                # have no real root); NaNs from the sqrt land here too.
                root = np.where(exceed, 0.0, root)
            jump = np.where(root >= 1.0, root - _EPS, 0.0).astype(np.int64)
            np.minimum(jump, n - e_arr, out=jump)
            e_arr = e_arr + jump + 1
            alive = e_arr <= n
            if not alive.all():
                e_arr = e_arr[alive]
                i_arr = i_arr[alive]
                bases = bases[:, alive]
                if off is not None:
                    off = off[alive]
                if bound_is_array:
                    bound = bound[alive]
                if n_is_array:
                    n = n[alive]
                if lane_tag is not None:
                    lane_tag = lane_tag[alive]
    return (
        evaluated,
        exceed_count,
        np.concatenate(cand_i) if cand_i else _EMPTY_I,
        np.concatenate(cand_e) if cand_e else _EMPTY_I,
        np.concatenate(cand_x) if cand_x else _EMPTY_F,
        np.concatenate(cand_t) if cand_t else _EMPTY_I,
    )


def _scan_order(cand_i, cand_e, cand_x):
    """Sort candidate visits into scan order (start descending, end ascending)."""
    order = np.lexsort((cand_e, -cand_i))
    return cand_i[order], cand_e[order], cand_x[order]


def _running_max_rows(cand_i, cand_x, bound):
    """Rows where a running-maximum bound truly updates.

    ``cand_i``/``cand_x`` are scan-ordered discovery candidates; a
    candidate is a real update exactly when it beats every earlier one
    and the incoming ``bound`` -- the sequential scan's own rule.
    """
    rows: list[int] = []
    running = bound
    for row, value in zip(cand_i.tolist(), cand_x.tolist()):
        if value > running:
            running = value
            if not rows or rows[-1] != row:
                rows.append(row)
    return rows


def _row_span(n, i_lo, i_hi, e_offset):
    """Sum of ``n + 1 - e0`` over rows ``i_lo..i_hi`` with ``e0 = i + e_offset``."""
    count = i_hi - i_lo + 1
    sum_i = (i_lo + i_hi) * count // 2
    return count * (n + 1 - e_offset) - sum_i


def _lane_rows(spans):
    """Lane start rows of ``(d, hi, lo)`` row spans: each span
    contributes rows ``hi`` down to ``lo`` of document ``d``, in scan
    order."""
    return np.concatenate([
        np.arange(hi, lo - 1, -1, dtype=np.int64) for _, hi, lo in spans
    ])


def _lane_tags(spans):
    """The document tag of each lane of :func:`_lane_rows`; only a pass
    over several documents reads them."""
    return np.concatenate([
        np.full(hi - lo + 1, d, dtype=np.int64) for d, hi, lo in spans
    ])


def _by_document(cand_t, cand_i, cand_e, cand_x):
    """Split tagged candidates into ``{d: (cand_i, cand_e, cand_x)}``,
    keyed by the documents that have any."""
    split = {}
    for d in np.unique(cand_t).tolist():
        mask = cand_t == d
        split[d] = (cand_i[mask], cand_e[mask], cand_x[mask])
    return split


def _x2max_chunk(sub, n, k, probabilities):
    """X²max of each row of one ``(t, n)`` chunk of encoded null draws.

    Module-level and free of backend state, like the native backend's
    chunk function; see ``NumpyBackend.simulate_x2max``.
    """
    t = sub.shape[0]
    width = n + 1
    mat = np.zeros((k, t * width), dtype=np.int64)
    for j in range(k):
        rows = mat[j].reshape(t, width)
        np.cumsum(sub == j, axis=1, out=rows[:, 1:])
    best = np.full(t, -1.0)
    trial_ids = np.arange(t, dtype=np.int64)
    trial_off = trial_ids * width
    if k == 2:
        p0, p1 = probabilities
        pref1 = mat[1]
    i_hi = n - 1
    size = _CALIB_FIRST_BLOCK
    while i_hi >= 0:
        count = min(size, i_hi + 1)
        rows = np.arange(i_hi, i_hi - count, -1, dtype=np.int64)
        i_arr = np.tile(rows, t)
        tags = np.repeat(trial_ids, count)
        off = np.repeat(trial_off, count)
        e_arr = i_arr + 1
        bound = best[tags]
        if k == 2:
            _, _, _, cx, ct = _lane_pass_binary(
                pref1, n, i_arr, e_arr, off, bound, p0, p1,
                collect=True, lane_tag=tags,
            )
        else:
            _, _, _, _, cx, ct = _lane_pass_generic(
                mat, n, i_arr, e_arr, off, bound, probabilities,
                collect=True, lane_tag=tags,
            )
        if cx.size:
            np.maximum.at(best, ct, cx)
        i_hi -= count
        size *= 2
    return best.tolist()


def _simulate_chunked(chunk_fn, model, n, trials, seed):
    """Shared Monte-Carlo driver: chunked draws, pluggable chunk scans.

    ``chunk_fn(sub, n, k, probabilities)`` scores one ``(t, n)`` chunk of
    encoded null draws and returns its per-trial X²max list.  Both the
    numpy and native backends run their ``simulate_x2max`` through this
    driver.  Draws happen here, sequentially, from the one RNG stream --
    in memory-bounded chunks that consume the ``Generator`` exactly as
    ``trials`` sequential length-``n`` draws would -- so samples are
    bit-identical to the reference.
    """
    rng = resolve_rng(seed)
    k = model.k
    probabilities = model.probabilities
    p_arr = np.asarray(probabilities)
    chunk = max(1, _CALIB_CHUNK_ELEMS // (k * (n + 1)))
    samples: list[float] = []
    for start in range(0, trials, chunk):
        # Chunked draws consume the Generator stream in the same
        # row-major order as one (trials, n) call -- and as the
        # reference backend's per-trial draws -- so chunking bounds
        # peak memory without touching the samples.
        sub = rng.choice(k, size=(min(chunk, trials - start), n), p=p_arr)
        samples.extend(chunk_fn(sub, n, k, probabilities))
    return samples


class _BatchCorpus:
    """Many documents' prefix matrices concatenated into one flat matrix.

    ``mat`` is ``(k, sum(n_d + 1))``; lane gathers into it use
    ``offsets[d] + position``.  Holding one matrix (rather than one per
    document) is what lets a single wavefront step advance lanes of every
    document at once.  A lone document's ``mat`` is its index's own
    matrix, not a copy.  ``lengths`` and ``prefixes`` hold each
    document's length and prefix lists for the scalar row walkers.
    """

    __slots__ = ("indexes", "lengths", "prefixes", "n_arr", "offsets", "mat")

    def __init__(self, indexes):
        self.indexes = list(indexes)
        self.lengths = [index.n for index in self.indexes]
        self.prefixes = [index.prefix_lists for index in self.indexes]
        self.n_arr = np.array(self.lengths, dtype=np.int64)
        widths = self.n_arr + 1
        self.offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(widths)[:-1])
        )
        mats = [index.counts_matrix() for index in self.indexes]
        self.mat = mats[0] if len(mats) == 1 else np.concatenate(mats, axis=1)


def _run_batched_sweep(corpus, e_offset, bounds, scalar_row, update_rows,
                       lane_pass):
    """The discovery/replay block sweep of every running-bound scan.

    Drives the mss, minlength and top-t scans of one document or many,
    end to end.  Each document walks a scalar head of :data:`_HEAD_ROWS`
    rows (where its pruning bound does most of its climbing); then
    blocks, doubling in size from :data:`_FIRST_BLOCK` rows, advance in
    lockstep -- block ``b`` of every still-active document runs as *one*
    discovery wavefront (per-lane document tag, offset, length and
    bound), which is where the per-document kernel dispatch of a corpus
    loop is amortised away.  Everyone whose block surfaced no
    bound-update candidates commits the discovery counters via the lane
    identity; the rest replay the block exactly -- and the replays batch
    across documents too, in *phases*: every replaying document's next
    gap run (rows between bound updates, whose bounds are now known
    constants) joins one shared frozen wavefront (walked scalar when the
    phase has fewer than :data:`_SCALAR_GAP` rows, where a wavefront's
    per-step overhead cannot amortise), then each walks its next update
    row scalar, and so on until all replays drain.

    A single document is a one-document batch whose passes run on plain
    scalars: no offsets, tags or per-step evaluation counts by tag.

    Callbacks (all per document ``d``):

    ``scalar_row(d, i)``
        walk one row with the reference walker, updating the caller's
        per-document state *and* ``bounds[d]`` (a list of floats);
        returns ``(ev, sk)``;
    ``update_rows(d, ci, ce, cx)``
        scan-ordered discovery candidates -> rows where the sequential
        scan truly updates its bound;
    ``lane_pass(n, i_arr, e_arr, off, bound, collect, tags, eval_by_tag)``
        run a wavefront over the corpus matrix -- discovery when
        ``collect``, exact frozen replay otherwise -- returning the lane
        pass's tuple: ``evaluated`` first, ``(cand_i, cand_e, cand_x,
        cand_tag)`` last.

    Returns per-document ``(evaluated, skipped)`` lists.
    """
    docs = len(corpus.indexes)
    lengths = corpus.lengths
    evaluated = [0] * docs
    skipped = [0] * docs

    def scalar_rows(d, hi, lo):
        for i in range(hi, lo - 1, -1):
            d_ev, d_sk = scalar_row(d, i)
            evaluated[d] += d_ev
            skipped[d] += d_sk

    def commit(d, hi, lo, ev):
        evaluated[d] += ev
        skipped[d] += _row_span(lengths[d], lo, hi, e_offset) - ev

    def run_pass(spans, collect):
        """One wavefront over ``spans`` under each document's current
        bound: per-document evaluation counts, and the candidates of each
        document that has any (see :func:`_by_document`)."""
        i_arr = _lane_rows(spans)
        if docs == 1:
            ev, *_, ci, ce, cx, _ = lane_pass(
                lengths[0], i_arr, i_arr + e_offset, None, bounds[0],
                collect, None, None,
            )
            return (ev,), ({0: (ci, ce, cx)} if ci.size else {})
        tags = _lane_tags(spans)
        eval_by_tag = np.zeros(docs, dtype=np.int64)
        _, *_, ci, ce, cx, ct = lane_pass(
            corpus.n_arr[tags], i_arr, i_arr + e_offset, corpus.offsets[tags],
            np.array(bounds)[tags], collect, tags, eval_by_tag,
        )
        return eval_by_tag, _by_document(ct, ci, ce, cx)

    i_hi = []
    for d in range(docs):
        top = lengths[d] - e_offset
        head = min(top + 1, _HEAD_ROWS)
        scalar_rows(d, top, top - head + 1)
        i_hi.append(top - head)

    size = _FIRST_BLOCK
    while True:
        blocks = [(d, hi, max(hi - size + 1, 0))
                  for d, hi in enumerate(i_hi) if hi >= 0]
        if not blocks:
            break
        eval_by_tag, cands = run_pass(blocks, True)
        # gap top, true update rows, next-update cursor, block bottom
        replay: dict[int, list] = {}
        for d, hi, lo in blocks:
            if d in cands:
                rows = update_rows(d, *_scan_order(*cands[d]))
                replay[d] = [hi, rows, 0, lo]
            else:
                # No visit of this document beat its bound: the discovery
                # pass was its exact sequential scan.  Commit it.
                commit(d, hi, lo, int(eval_by_tag[d]))
            i_hi[d] = lo - 1
        while replay:
            gaps = []
            gap_rows = 0
            for d, (prev, rows, cursor, lo) in replay.items():
                gap_lo = rows[cursor] + 1 if cursor < len(rows) else lo
                if prev >= gap_lo:
                    gaps.append((d, prev, gap_lo))
                    gap_rows += prev - gap_lo + 1
            if gap_rows < _SCALAR_GAP:
                for d, hi, lo in gaps:
                    scalar_rows(d, hi, lo)
            else:
                eval_by_tag = run_pass(gaps, False)[0]
                for d, hi, lo in gaps:
                    commit(d, hi, lo, int(eval_by_tag[d]))
            drained = []
            for d, state in replay.items():
                rows, cursor = state[1], state[2]
                if cursor < len(rows):
                    scalar_rows(d, rows[cursor], rows[cursor])
                    state[0] = rows[cursor] - 1
                    state[2] = cursor + 1
                else:
                    drained.append(d)
            for d in drained:
                del replay[d]
        size *= 2
    return evaluated, skipped


class NumpyBackend:
    """Vectorised kernels, bit-identical to :class:`PythonBackend`.

    Each of the four problems has one batched sweep: ``mine_batch`` runs
    a corpus chunk through it, and the problem's single-document
    ``scan_*`` method is a one-document batch of the same sweep.
    """

    name = "numpy"

    # ------------------------------------------------------------------
    # The four problems, one document at a time
    # ------------------------------------------------------------------

    def scan_mss(self, index, model):
        """Full MSS scan, on the binary fast path at k = 2.  Same contract
        as :meth:`PythonBackend.scan_mss`: returns
        ``(best, (start, end), evaluated, skipped)``, bit-identical."""
        return self._mine_batch_best([index], model, 1, model.k == 2)[0]

    def scan_mss_min_length(self, index, model, min_length):
        """Problem 4 scan (generic arithmetic for every ``k``, as the
        reference does); same contract as
        :meth:`PythonBackend.scan_mss_min_length`, bit-identical."""
        return self._mine_batch_best([index], model, min_length, False)[0]

    def scan_top_t(self, index, model, t):
        """Top-t scan.  Same contract as :meth:`PythonBackend.scan_top_t`
        -- returns the raw size-t heap, ``t`` uncapped -- and
        bit-identical to it."""
        return self._mine_batch_top([index], model, [t])[0]

    def scan_threshold(self, index, model, alpha0, limit=None, count_only=False):
        """Threshold scan.  Same contract as
        :meth:`PythonBackend.scan_threshold`, bit-identical including the
        truncated prefix of matches."""
        return self._mine_batch_threshold(
            [index], model, alpha0, limit, count_only
        )[0]

    # ------------------------------------------------------------------
    # Corpus batching
    # ------------------------------------------------------------------

    def mine_batch(self, indexes, model, spec):
        """Mine many (ragged) documents as one multi-document wavefront.

        Same contract as :meth:`PythonBackend.mine_batch` -- one raw
        single-document scan tuple per document, in input order,
        bit-identical to the per-document loop -- but a corpus chunk runs
        as *one* batched sweep: all documents' prefix matrices
        concatenate into one flat matrix, every document contributes
        lanes (tagged with its id, masked at its true length) to shared
        wavefront passes, and only documents whose pruning bound truly
        moves inside a block replay that block alone.  This is the same
        trial-sharing idea as :meth:`simulate_x2max`, with the full
        exactness machinery kept per document.

        ``"threshold"`` with a ``limit`` stays inside the shared
        wavefront too: a fixed-bound pass's matches are exact per row,
        so when a document's running match total reaches its limit the
        scan-order position of match number ``limit`` pins down the row
        the sequential scan truncated in; that document alone replays
        the rows above the cut for exact counters and walks the cut row
        scalar, while every other document's lanes continue untouched.
        """
        problem = spec.problem
        if problem in ("mss", "minlength"):
            e_offset = 1 if problem == "mss" else spec.min_length
            # Only mss takes the k == 2 fast path; minlength walks the
            # generic arithmetic at every k, min_length == 1 included.
            binary = problem == "mss" and model.k == 2
            return self._mine_batch_best(indexes, model, e_offset, binary)
        if problem == "top":
            return self._mine_batch_top(indexes, model, [
                min(spec.t, index.n * (index.n + 1) // 2) for index in indexes
            ])
        if problem == "threshold":
            return self._mine_batch_threshold(
                indexes, model, spec.threshold, spec.limit
            )
        raise ValueError(f"unknown problem {problem!r}")

    def _mine_batch_best(self, indexes, model, e_offset, binary):
        """Running-maximum scans (``mss`` / ``minlength``) whose rows start
        at length ``e_offset``; ``binary`` takes the k = 2 fast path."""
        corpus = _BatchCorpus(indexes)
        docs = len(corpus.indexes)
        probabilities = model.probabilities
        bounds = [-1.0] * docs
        best_start = [0] * docs
        best_end = [e_offset] * docs
        if binary:
            p0, p1 = probabilities
            pref1 = corpus.mat[1]
        else:
            inv_p = [1.0 / p for p in probabilities]

        def scalar_row(d, i):
            if binary:
                best, bs, be, d_ev, d_sk = mss_row_binary(
                    corpus.prefixes[d][1], corpus.lengths[d], i, i + 1,
                    bounds[d], best_start[d], best_end[d], p0, p1,
                )
            else:
                best, bs, be, d_ev, d_sk = mss_row_generic(
                    corpus.prefixes[d], corpus.lengths[d], i, i + e_offset,
                    bounds[d], best_start[d], best_end[d],
                    probabilities, inv_p,
                )
            bounds[d] = best
            best_start[d] = bs
            best_end[d] = be
            return d_ev, d_sk

        def update_rows(d, ci, ce, cx):
            return _running_max_rows(ci, cx, bounds[d])

        def lane_pass(n, i_arr, e_arr, off, bound, collect, tags, eval_by_tag):
            if binary:
                return _lane_pass_binary(
                    pref1, n, i_arr, e_arr, off, bound, p0, p1,
                    collect=collect, lane_tag=tags, eval_by_tag=eval_by_tag,
                )
            return _lane_pass_generic(
                corpus.mat, n, i_arr, e_arr, off, bound, probabilities,
                collect=collect, lane_tag=tags, eval_by_tag=eval_by_tag,
            )

        evaluated, skipped = _run_batched_sweep(
            corpus, e_offset, bounds, scalar_row, update_rows, lane_pass,
        )
        return [
            (bounds[d], (best_start[d], best_end[d]), evaluated[d], skipped[d])
            for d in range(docs)
        ]

    def _mine_batch_top(self, indexes, model, sizes):
        """Top-t scans: one zero-seeded heap of ``sizes[d]`` entries, and
        its root as the bound, per document."""
        corpus = _BatchCorpus(indexes)
        docs = len(corpus.indexes)
        probabilities = model.probabilities
        inv_p = [1.0 / p for p in probabilities]
        heaps: list[list[tuple[float, int, int]]] = [
            [(0.0, -1, -1)] * size for size in sizes
        ]
        bounds = [0.0] * docs

        def scalar_row(d, i):
            bound, d_ev, d_sk = topt_row(
                corpus.prefixes[d], corpus.lengths[d], i, i + 1, heaps[d],
                bounds[d], probabilities, inv_p,
            )
            bounds[d] = bound
            return d_ev, d_sk

        def update_rows(d, ci, ce, cx):
            # Simulate the heap over the scan-ordered exceedances to find
            # exactly which rows replace a heap entry (the real heap is
            # mutated by the scalar replay walks, not here).
            sim = list(heaps[d])
            rows: list[int] = []
            for row, end, value in zip(ci.tolist(), ce.tolist(), cx.tolist()):
                if value > sim[0][0]:
                    heapq.heapreplace(sim, (value, row, end))
                    if not rows or rows[-1] != row:
                        rows.append(row)
            return rows

        def lane_pass(n, i_arr, e_arr, off, bound, collect, tags, eval_by_tag):
            return _lane_pass_generic(
                corpus.mat, n, i_arr, e_arr, off, bound, probabilities,
                collect=collect, lane_tag=tags, eval_by_tag=eval_by_tag,
            )

        evaluated, skipped = _run_batched_sweep(
            corpus, 1, bounds, scalar_row, update_rows, lane_pass
        )
        return [(heaps[d], evaluated[d], skipped[d]) for d in range(docs)]

    def _mine_batch_threshold(self, indexes, model, alpha0, limit=None,
                              count_only=False):
        """Threshold scans: a fixed bound, truncation per document.

        Without a ``limit`` no replay ever happens (the bound never
        moves).  With one, each document carries its own remaining
        capacity: the moment a document's running match total reaches
        ``limit`` inside a shared block, the scan-order position of its
        match number ``limit`` identifies the row the sequential scan
        stopped in (the matches of a fixed-bound pass are exact per
        row); that document replays the rows above the cut for exact
        counters, walks the cut row with the scalar reference walker
        (which applies the real remaining capacity and sets
        ``truncated``), and retires -- all other documents' lanes are
        unaffected.  ``count_only`` counts the matches without keeping
        them and ignores ``limit``, as the reference walker does.
        Bit-identical to :meth:`PythonBackend.scan_threshold` per
        document, including the truncated match prefix and the stopping
        point.
        """
        if count_only:
            limit = None
        elif limit is not None and limit < 1:
            # The reference walker truncates right after appending match
            # number max(limit, 1); clamping keeps the kernels agreeing
            # even on a nonsensical limit a third-party caller slips past
            # find_above_threshold's validation.
            limit = 1
        corpus = _BatchCorpus(indexes)
        docs = len(corpus.indexes)
        lengths = corpus.lengths
        probabilities = model.probabilities
        inv_p = [1.0 / p for p in probabilities]
        found: list[list[tuple[float, int, int]]] = [[] for _ in range(docs)]
        match_count = [0] * docs
        truncated = [False] * docs
        evaluated = [0] * docs
        skipped = [0] * docs

        def scalar_row(d, i):
            d_ev, d_sk, d_match, truncated[d] = threshold_row(
                corpus.prefixes[d], lengths[d], i, i + 1, alpha0,
                probabilities, inv_p, found[d], limit, count_only,
            )
            evaluated[d] += d_ev
            skipped[d] += d_sk
            match_count[d] += d_match

        def doc_pass(d, i_arr, store):
            # One document's lanes on its own matrix, on plain scalars.
            return _lane_pass_generic(
                corpus.indexes[d].counts_matrix(), lengths[d], i_arr,
                i_arr + 1, None, alpha0, probabilities, collect=True,
                exceed_unit=True, store=store,
            )

        i_hi = []
        for d in range(docs):
            n = lengths[d]
            head = min(n, _HEAD_ROWS)
            i_hi.append(n - head - 1)
            for i in range(n - 1, n - head - 1, -1):
                scalar_row(d, i)
                if truncated[d]:
                    i_hi[d] = -1
                    break

        size = _FIRST_BLOCK
        while True:
            blocks = [(d, hi, max(hi - size + 1, 0))
                      for d, hi in enumerate(i_hi) if hi >= 0]
            if not blocks:
                break
            i_arr = _lane_rows(blocks)
            if docs == 1:
                ev, exceeded, ci, ce, cx, _ = doc_pass(0, i_arr, not count_only)
                eval_by_tag, match_by_tag = (ev,), (exceeded,)
                cands = {0: (ci, ce, cx)} if ci.size else {}
            else:
                tags = _lane_tags(blocks)
                eval_by_tag = np.zeros(docs, dtype=np.int64)
                _, _, ci, ce, cx, ct = _lane_pass_generic(
                    corpus.mat, corpus.n_arr[tags], i_arr, i_arr + 1,
                    corpus.offsets[tags], alpha0, probabilities,
                    collect=True, exceed_unit=True, lane_tag=tags,
                    eval_by_tag=eval_by_tag,
                )
                cands = _by_document(ct, ci, ce, cx)
                match_by_tag = np.bincount(ct, minlength=docs)
            for d, hi, lo in blocks:
                n_match = int(match_by_tag[d])
                i_hi[d] = lo - 1
                if n_match and not count_only:
                    oi, oe, ox = _scan_order(*cands[d])
                    if limit is not None and len(found[d]) + n_match >= limit:
                        # This document truncates inside the block (see
                        # the docstring); replay above the cut, walk the
                        # cut row scalar, retire the document.
                        cut_row = int(oi[limit - len(found[d]) - 1])
                        if hi > cut_row:
                            ev, n_above, *_ = doc_pass(
                                d, np.arange(hi, cut_row, -1, dtype=np.int64),
                                False,
                            )
                            keep = oi > cut_row
                            found[d].extend(zip(
                                ox[keep].tolist(), oi[keep].tolist(),
                                oe[keep].tolist(),
                            ))
                            match_count[d] += n_above
                            evaluated[d] += ev
                            skipped[d] += (
                                _row_span(lengths[d], cut_row + 1, hi, 1) - ev
                            )
                        scalar_row(d, cut_row)
                        i_hi[d] = -1
                        continue
                    found[d].extend(zip(ox.tolist(), oi.tolist(), oe.tolist()))
                match_count[d] += n_match
                ev = int(eval_by_tag[d])
                evaluated[d] += ev
                skipped[d] += _row_span(lengths[d], lo, hi, 1) - ev
            size *= 2
        return [
            (found[d], match_count[d], truncated[d], evaluated[d], skipped[d])
            for d in range(docs)
        ]

    # ------------------------------------------------------------------
    # Routed auxiliary kernels
    # ------------------------------------------------------------------

    def best_over_pairs(self, counts_matrix, inv_p, starts, ends):
        """Vectorised candidate-pair search (one pass per start).

        Same contract and bit-identical results as
        :meth:`PythonBackend.best_over_pairs`: the character accumulation
        runs as an explicit ``j``-loop so the summation order matches the
        reference exactly.
        """
        starts = np.unique(np.asarray(starts, dtype=np.int64))
        ends = np.unique(np.asarray(ends, dtype=np.int64))
        counts_matrix = np.asarray(counts_matrix)
        k = counts_matrix.shape[0]
        inv = [float(v) for v in inv_p]
        end_counts = counts_matrix[:, ends].astype(np.float64)
        end_positions = ends.astype(np.float64)
        best = -math.inf
        best_pair = (0, 0)
        evaluated = 0
        for s in starts.tolist():
            lengths = end_positions - s
            valid = lengths > 0
            if not valid.any():
                continue
            window = end_counts[:, valid] - counts_matrix[:, s : s + 1]
            lengths = lengths[valid]
            total = (window[0] * window[0]) * inv[0]
            for j in range(1, k):
                total = total + (window[j] * window[j]) * inv[j]
            x2 = total / lengths - lengths
            evaluated += int(x2.size)
            offset = int(np.argmax(x2))
            value = float(x2[offset])
            if value > best:
                best = value
                best_pair = (s, int(ends[valid][offset]))
        return best, best_pair, evaluated

    def score_spans(self, index, model, starts, ends):
        """Elementwise span X² (same contract as
        :meth:`PythonBackend.score_spans`, bit-identical)."""
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        mat = index.counts_matrix()
        probabilities = model.probabilities
        inv_p = [1.0 / p for p in probabilities]
        y = mat[:, ends] - mat[:, starts]
        total = (y[0] * y[0]) * inv_p[0]
        for j in range(1, len(probabilities)):
            total = total + (y[j] * y[j]) * inv_p[j]
        lengths = (ends - starts).astype(np.float64)
        return (total / lengths - lengths).tolist()

    def scan_mss_exhaustive(self, index, model):
        """Exhaustive O(n²) scan, one vectorised profile per start row.

        Same contract and bit-identical results as
        :meth:`PythonBackend.scan_mss_exhaustive` (explicit character
        loop, first-maximum tie-breaking).
        """
        n = index.n
        mat = index.counts_matrix()
        probabilities = model.probabilities
        inv_p = [1.0 / p for p in probabilities]
        k = len(probabilities)
        best = -1.0
        best_start, best_end = 0, 1
        for i in range(n):
            window = mat[:, i + 1 :] - mat[:, i : i + 1]
            total = (window[0] * window[0]) * inv_p[0]
            for j in range(1, k):
                total = total + (window[j] * window[j]) * inv_p[j]
            lengths = np.arange(1, n - i + 1, dtype=np.float64)
            profile = total / lengths - lengths
            offset = int(np.argmax(profile))
            value = float(profile[offset])
            if value > best:
                best = value
                best_start, best_end = i, i + offset + 1
        return best, (best_start, best_end), n * (n + 1) // 2

    def scan_mss_skips(self, index, model):
        """Instrumented skip-profile scan.

        Profiling instruments the *sequential* scan -- its records are
        the sequential trace itself, so there is nothing to vectorise
        without replaying every visit scalar anyway.  The numpy backend
        therefore shares the reference implementation (see
        :meth:`PythonBackend.scan_mss_skips`); parity is by construction.
        """
        return PythonBackend().scan_mss_skips(index, model)

    # ------------------------------------------------------------------
    # Monte-Carlo calibration
    # ------------------------------------------------------------------

    def simulate_x2max(self, model, n, trials, seed, executor=None):
        """X²max of ``trials`` null strings, all simulated as one batch.

        The sample matrix (drawn in memory-bounded chunks of trials)
        consumes the RNG stream exactly as ``trials`` sequential
        length-``n`` draws would, so the samples are bit-identical to
        the reference backend's.  The
        scans then run as one big wavefront: lanes span *every* trial's
        start positions at once (trials are independent, so each lane
        carries its own trial's running-maximum bound), and only the
        maxima matter -- exceedances fold into the per-trial best via a
        scatter-max, with no replay machinery at all.

        The chunked-draw mechanics live in the shared
        :func:`_simulate_chunked` driver (the native backend reuses it
        with its own chunk function).  The scans hold the GIL, so they
        run on the calling thread and ``executor`` is ignored.
        """
        return _simulate_chunked(_x2max_chunk, model, n, trials, seed)

    def __repr__(self) -> str:
        return "NumpyBackend()"
