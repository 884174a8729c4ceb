/* Native scan/calibration kernels for repro-mss.
 *
 * This translation unit is a line-by-line port of the pure-Python
 * reference walkers in ``repro/kernels/python_backend.py``.  The parity
 * contract is bit-for-bit: every floating-point expression below is
 * written in exactly the reference's evaluation order (left-associative,
 * eq. 5 character accumulation in alphabet order), the chain-cover jump
 * uses the same ``int(root - eps)`` truncation, and the heap replicates
 * CPython's ``heapq`` sift order so tie-breaks match tuple comparison.
 *
 * Compiled with ``-O2 -ffp-contract=off`` and WITHOUT ``-ffast-math``:
 * contraction (FMA) or reassociation would change results in the last
 * ulp and break the ``==`` parity suite.  ``sqrt`` is correctly rounded
 * per IEEE-754, the same as CPython's ``math.sqrt``.
 *
 * The lane walker.  One X² evaluation is a single dependent chain
 * (prefix loads, sum, divide, k square roots and divides, then the
 * truncated jump that addresses the next load), so a lone scan leaves
 * the core mostly waiting.  ``walk_lanes`` keeps LANES best-substring
 * scans (mss, with its k = 2 fast path, and minlength) in flight and
 * advances each by one evaluation in turn, so the chains of different
 * documents (or calibration trials) overlap.  A free lane claims the
 * next slot from a cursor that every thread of a run shares.  Each lane
 * runs exactly the single-document scan's operations, so floats and
 * counters stay ``==``.  Two rules keep the lanes overlapping:
 *   - the root min has no ``break``: it runs over all k symbols.  The
 *     reference breaks only once the root is below 1, after which the
 *     min can only fall further, so no skip is taken either way, and a
 *     NaN root loses every ``<`` comparison in both forms.  With the
 *     break the lanes ran slower: at k = 4 the fastest of 11 runs took
 *     38 ns per evaluation, against 24 ns without;
 *   - ``y`` is re-read from the prefix matrix rather than kept in a
 *     per-lane counts buffer, so a lane's state does not grow with k
 *     (a buffered variant measured the same, 23.6-24.1 ns).
 * The lane step also advances with selects, not branches: a mispredicted
 * skip would flush all four lanes; a scan left with no company (a run
 * of one document, or the last scan of a run) has nothing to overlap
 * with and finishes with the lone step.  A lone scan (``scan_mss`` and
 * friends) shares the same arithmetic but keeps the reference's shape:
 * branches, which let it start its next evaluation speculatively, the
 * early ``break``, and a copy of row i's prefix counts at k > 2; each
 * measured faster for one chain alone.  LANES is a compile-time 4.
 *
 * Conventions shared by every entry point:
 *   - ``mat`` is a row-major (k, n + 1) int64 prefix-count matrix (the
 *     ``PrefixCountIndex.counts_matrix()`` layout);
 *   - ``probs``/``inv_p`` are the model probabilities and their
 *     reciprocals, length k;
 *   - ``eps`` is ``repro.core.skip.ROOT_EPSILON`` (passed in so the
 *     constant has a single Python source of truth);
 *   - a ``cursor`` is one int64 that the threads of a run advance
 *     atomically; a ``budget`` is the seconds left before the run's
 *     deadline (INFINITY for none), checked before every claim;
 *   - counters use int64; return codes: 0 ok, 1 allocation failure.
 */

#define _POSIX_C_SOURCE 199309L

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <time.h>

#define LANES 4

/* ------------------------------------------------------------------ */
/* Chain-cover jump: Python's ``jump = int(root - eps); if e + jump > n:
 * jump = n - e``.  The comparison-first form is equivalent (proof: n - e
 * is an exact small integer in double, truncation is monotone) and
 * avoids undefined int64 casts when root is huge.                      */
static inline int64_t safe_jump(double root, double eps, int64_t n, int64_t e)
{
    const double rj = root - eps;
    if (rj >= (double)(n - e))
        return n - e;
    return (int64_t)rj; /* truncation toward zero == Python int() for rj > 0 */
}

/* ------------------------------------------------------------------ */
/* The evaluation arithmetic, shared by every scan.                    */

/* Count of symbol j in S[i..e), read from the prefix matrix.  A lone
 * scan passes ``bases``, its copy of row i's prefix counts (fewer cache
 * lines per evaluation at large k); the lanes pass NULL and re-read
 * them from the matrix.                                               */
static inline int64_t count_of(const int64_t *mat, int64_t stride,
                               int64_t i, int64_t e, int64_t j,
                               const int64_t *bases)
{
    const int64_t *base = bases ? bases + j : mat + j * stride + i;
    return mat[j * stride + e] - *base;
}

/* X² of S[i..e) for any k (eq. 5, accumulated in alphabet order). */
static inline double x2_generic(const int64_t *mat, int64_t stride,
                                int64_t i, int64_t e, double L, int64_t k,
                                const double *inv_p, const int64_t *bases)
{
    double total = 0.0;
    for (int64_t j = 0; j < k; j++) {
        const int64_t y = count_of(mat, stride, i, e, j, bases);
        total += (double)y * (double)y * inv_p[j];
    }
    return total / L - L;
}

/* Smallest per-character chain-cover root of S[i..e) against ``bound``.
 * With ``early_out`` the loop stops once the root is below 1, as the
 * reference does; without it the min runs over all k symbols (the lane
 * walker's form).  Once the root is below 1 the min can only fall, so
 * no skip is taken either way, and a NaN root loses every ``<``
 * comparison in both forms: the skip decision and jump are the same. */
static inline double root_generic(const int64_t *mat, int64_t stride,
                                  int64_t i, int64_t e, double L, int64_t k,
                                  const double *probs, double x2,
                                  double bound, const int64_t *bases,
                                  const int early_out)
{
    const double c_common = (x2 - bound) * L;
    double root = INFINITY;
    for (int64_t j = 0; j < k; j++) {
        const int64_t y = count_of(mat, stride, i, e, j, bases);
        const double p = probs[j];
        const double a = 1.0 - p;
        const double b = 2.0 * (double)y - 2.0 * L * p - p * bound;
        const double c = c_common * p;
        const double r = (-b + sqrt(b * b - 4.0 * a * c)) / (2.0 * a);
        if (early_out) {
            if (r < root) {
                root = r;
                if (root < 1.0)
                    break;
            }
        } else {
            root = r < root ? r : root;
        }
    }
    return root;
}

/* The k == 2 fast path's constants (port of ``mss_row_binary``). */
typedef struct {
    double p0, p1, inv_lp, two_p0, two_p1;
} binary_model;

static inline binary_model binary_of(const double *probs)
{
    binary_model bm;
    bm.p0 = probs[0];
    bm.p1 = probs[1];
    bm.inv_lp = 1.0 / (bm.p0 * bm.p1);
    bm.two_p0 = 2.0 * bm.p0;
    bm.two_p1 = 2.0 * bm.p1;
    return bm;
}

static inline double x2_binary(double y1, double L, const binary_model *bm)
{
    const double d = y1 - L * bm->p1;
    return d * d * bm->inv_lp / L;
}

/* Min over the two per-character roots against ``best``. */
static inline double root_binary(double y1, double L, double x2, double best,
                                 const binary_model *bm)
{
    const double c_common = (x2 - best) * L;
    const double y0 = L - y1;
    const double b0 = 2.0 * y0 - L * bm->two_p0 - bm->p0 * best;
    const double c0 = c_common * bm->p0;
    const double r0 =
        (-b0 + sqrt(b0 * b0 - 4.0 * bm->p1 * c0)) / (2.0 * bm->p1);
    const double b1 = 2.0 * y1 - L * bm->two_p1 - bm->p1 * best;
    const double c1 = c_common * bm->p1;
    const double r1 =
        (-b1 + sqrt(b1 * b1 - 4.0 * bm->p0 * c1)) / (2.0 * bm->p0);
    return r0 < r1 ? r0 : r1;
}

/* ------------------------------------------------------------------ */
/* One best-substring scan (Problem 1, or Problem 4 with off > 1): rows
 * i = n - off down to 0, ends e = i + off up to n.                    */

typedef struct {
    const int64_t *mat; /* NULL: the lane is idle */
    int64_t n, i, e;
    double best;
    int64_t best_start, best_end, evaluated, skipped;
    int64_t slot;       /* the document or trial being scanned */
} scan_state;

typedef struct {
    int64_t k, off;
    const double *probs, *inv_p;
    binary_model bm;
    double eps;
} scan_params;

/* Row i's prefix counts, one per symbol. */
static inline void load_bases(const int64_t *mat, int64_t stride, int64_t i,
                              int64_t k, int64_t *bases)
{
    for (int64_t j = 0; j < k; j++)
        bases[j] = mat[j * stride + i];
}

static inline void scan_start(scan_state *s, const scan_params *m,
                              const int64_t *mat, int64_t n, int64_t slot)
{
    s->mat = mat;
    s->n = n;
    s->i = n - m->off;
    s->e = n;
    s->best = -1.0;
    s->best_start = 0;
    s->best_end = m->off;
    s->evaluated = 0;
    s->skipped = 0;
    s->slot = slot;
}

/* One X² evaluation at (i, e), the running-best update, the chain-cover
 * advance and, at the end of a row, the move to the next row.  The scan
 * is done once ``i < 0``.  A lone scan branches (the predictor lets it
 * start the next evaluation early), stops its root min below 1 and, at
 * k > 2, keeps row i's prefix counts in ``bases``; in the lanes every
 * step is branch-free, since a mispredict would flush all of them, the
 * root min runs over all k symbols and ``bases`` is NULL.             */
static inline __attribute__((always_inline)) void
scan_visit(scan_state *s, const scan_params *m, const int binary,
           const int lanes, int64_t *bases)
{
    const int64_t n = s->n;
    const int64_t stride = n + 1;
    const int64_t i = s->i;
    const int64_t e = s->e;
    const double L = (double)(e - i);
    const int64_t *pref1 = s->mat + stride;
    const double y1 = binary ? (double)(pref1[e] - pref1[i]) : 0.0;
    const double x2 = binary ? x2_binary(y1, L, &m->bm)
                             : x2_generic(s->mat, stride, i, e, L, m->k,
                                          m->inv_p, bases);
    s->evaluated += 1;
    if (lanes) {
        const int better = x2 > s->best;
        s->best = better ? x2 : s->best;
        s->best_start = better ? i : s->best_start;
        s->best_end = better ? e : s->best_end;
    } else if (x2 > s->best) {
        s->best = x2;
        s->best_start = i;
        s->best_end = e;
    }
    const double root =
        binary ? root_binary(y1, L, x2, s->best, &m->bm)
               : root_generic(s->mat, stride, i, e, L, m->k, m->probs, x2,
                              s->best, bases, !lanes);
    if (!lanes) {
        int64_t next = e + 1;
        if (root >= 1.0) {
            const int64_t jump = safe_jump(root, m->eps, n, e);
            s->skipped += jump;
            next += jump;
        }
        if (next > n) {
            s->i = i - 1;
            next = i - 1 + m->off;
            if (bases && i > 0)
                load_bases(s->mat, stride, i - 1, m->k, bases);
        }
        s->e = next;
        return;
    }
    /* safe_jump without branches: clamp to [0, n - e], keep on a skip. */
    const double lim = (double)(n - e);
    double rj = root - m->eps;
    rj = rj < lim ? rj : lim;
    rj = rj > 0.0 ? rj : 0.0;
    const int64_t jump = root >= 1.0 ? (int64_t)rj : 0;
    s->skipped += jump;
    const int64_t next = e + jump + 1;
    const int row_done = next > n;
    s->i = row_done ? i - 1 : i;
    s->e = row_done ? i - 1 + m->off : next;
}

static inline scan_params params_of(int64_t k, const double *probs,
                                    const double *inv_p, int64_t off,
                                    int binary, double eps)
{
    scan_params m;
    m.k = k;
    m.off = off;
    m.probs = probs;
    m.inv_p = inv_p;
    m.eps = eps;
    m.bm = binary ? binary_of(probs) : (binary_model){0.0, 0.0, 0.0, 0.0, 0.0};
    return m;
}

/* A single scan to completion: scan_mss is off == 1 with the binary fast
 * path at k == 2; scan_mss_min_length is off == min_length with the
 * generic walker for every k (as the reference does).                 */
static int32_t scan_best(const int64_t *mat, int64_t n, int64_t k,
                         const double *probs, const double *inv_p,
                         int64_t off, int binary, double eps,
                         double *out_best, int64_t *out_pos,
                         int64_t *out_work)
{
    const scan_params m = params_of(k, probs, inv_p, off, binary, eps);
    scan_state s;
    scan_start(&s, &m, mat, n, 0);
    if (binary) {
        while (s.i >= 0)
            scan_visit(&s, &m, 1, 0, NULL);
    } else {
        int64_t *bases = malloc((size_t)k * sizeof(int64_t));
        if (!bases)
            return 1;
        if (s.i >= 0)
            load_bases(mat, n + 1, s.i, k, bases);
        while (s.i >= 0)
            scan_visit(&s, &m, 0, 0, bases);
        free(bases);
    }
    *out_best = s.best;
    out_pos[0] = s.best_start;
    out_pos[1] = s.best_end;
    out_work[0] = s.evaluated;
    out_work[1] = s.skipped;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Claims: the slots of one run, handed out to lanes on every thread.  */

static double monotonic_seconds(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* The absolute expiry of a ``budget`` of seconds from now. */
static double expiry_of(double budget)
{
    return budget == INFINITY ? INFINITY : monotonic_seconds() + budget;
}

/* The next unclaimed slot below ``count``, or -1 once every slot is
 * claimed or the run's deadline has passed (then nothing is claimed). */
static int64_t claim_slot(int64_t *cursor, int64_t count, double expires)
{
    if (expires != INFINITY && monotonic_seconds() >= expires)
        return -1;
    const int64_t slot = __atomic_fetch_add(cursor, 1, __ATOMIC_RELAXED);
    return slot < count ? slot : -1;
}

typedef struct {
    int64_t *cursor;
    int64_t count;
    double expires;
    /* documents: one prefix matrix per slot */
    const int64_t *const *mats;
    const int64_t *ns;
    /* trials: (count, n) encoded draws, one matrix buffer per lane */
    const int64_t *codes;
    int64_t n;
    int64_t *bufs;
    /* per-slot outputs; out_pos/out_work may be NULL */
    double *out_best;
    int64_t *out_pos;
    int64_t *out_work;
} claims;

/* Row-major (k, n + 1) prefix counts of one encoded string. */
static void build_prefix(const int64_t *row, int64_t n, int64_t k,
                         int64_t *mat)
{
    const int64_t stride = n + 1;
    for (int64_t j = 0; j < k; j++) {
        int64_t *pref = mat + j * stride;
        int64_t cum = 0;
        pref[0] = 0;
        for (int64_t pos = 0; pos < n; pos++) {
            cum += row[pos] == j;
            pref[pos + 1] = cum;
        }
    }
}

static void scan_finish(claims *c, const scan_state *s)
{
    c->out_best[s->slot] = s->best;
    if (c->out_pos) {
        c->out_pos[2 * s->slot] = s->best_start;
        c->out_pos[2 * s->slot + 1] = s->best_end;
    }
    if (c->out_work) {
        c->out_work[2 * s->slot] = s->evaluated;
        c->out_work[2 * s->slot + 1] = s->skipped;
    }
}

/* Start lane ``lane`` on the next slot; 0 once nothing is left.  A trial
 * builds its prefix matrix into the lane's own buffer.  A slot with no
 * rows (min_length > n) is finished on the spot.                      */
static int lane_claim(claims *c, const scan_params *m, scan_state *s,
                      int lane)
{
    for (;;) {
        const int64_t slot = claim_slot(c->cursor, c->count, c->expires);
        if (slot < 0) {
            s->mat = NULL;
            return 0;
        }
        if (c->codes) {
            int64_t *mat = c->bufs + (int64_t)lane * m->k * (c->n + 1);
            build_prefix(c->codes + slot * c->n, c->n, m->k, mat);
            scan_start(s, m, mat, c->n, slot);
        } else {
            scan_start(s, m, c->mats[slot], c->ns[slot], slot);
        }
        if (s->i >= 0)
            return 1;
        scan_finish(c, s);
    }
}

/* Keep LANES scans in flight until the claims run dry.  A scan left on
 * its own (a one-document run, or the last scan of a run) has nothing
 * to overlap with, so it finishes with the lone scan's step.          */
static inline __attribute__((always_inline)) void
walk_lanes(claims *c, const scan_params *m, const int binary)
{
    scan_state lanes[LANES];
    int live = 0;
    for (int l = 0; l < LANES; l++)
        live += lane_claim(c, m, &lanes[l], l);
    while (live > 0) {
        for (int l = 0; l < LANES; l++) {
            scan_state *s = &lanes[l];
            if (!s->mat)
                continue;
            if (live == 1) {
                while (s->i >= 0)
                    scan_visit(s, m, binary, 0, NULL);
            } else {
                scan_visit(s, m, binary, 1, NULL);
            }
            if (s->i < 0) {
                scan_finish(c, s);
                if (!lane_claim(c, m, s, l))
                    live -= 1;
            }
        }
    }
}

static void walk(claims *c, const scan_params *m, int binary)
{
    if (binary)
        walk_lanes(c, m, 1);
    else
        walk_lanes(c, m, 0);
}

/* ------------------------------------------------------------------ */
/* CPython heapq replication over parallel (x2, i, e) arrays.  The heap
 * IS the result (scan_top_t returns the raw heap), so layout must match
 * heapq's exactly: heapreplace = root <- item, _siftup(0), which sinks
 * to a leaf choosing ``not left < right ? right : left`` and then sifts
 * the new item back up.  Tuple order: (x2, i, e) lexicographic.        */

static inline int tup_lt(double ax, int64_t ai, int64_t ae,
                         double bx, int64_t bi, int64_t be)
{
    if (ax != bx)
        return ax < bx;
    if (ai != bi)
        return ai < bi;
    return ae < be;
}

static void heap_replace(double *hx, int64_t *hi, int64_t *he, int64_t t,
                         double x, int64_t item_i, int64_t item_e)
{
    int64_t pos = 0;
    int64_t childpos = 1;
    while (childpos < t) {
        const int64_t rightpos = childpos + 1;
        if (rightpos < t &&
            !tup_lt(hx[childpos], hi[childpos], he[childpos],
                    hx[rightpos], hi[rightpos], he[rightpos]))
            childpos = rightpos;
        hx[pos] = hx[childpos];
        hi[pos] = hi[childpos];
        he[pos] = he[childpos];
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    while (pos > 0) {
        const int64_t parentpos = (pos - 1) >> 1;
        if (tup_lt(x, item_i, item_e, hx[parentpos], hi[parentpos],
                   he[parentpos])) {
            hx[pos] = hx[parentpos];
            hi[pos] = hi[parentpos];
            he[pos] = he[parentpos];
            pos = parentpos;
            continue;
        }
        break;
    }
    hx[pos] = x;
    hi[pos] = item_i;
    he[pos] = item_e;
}

/* ------------------------------------------------------------------ */
/* Growable (x2, i, e) match buffer for the threshold scan.            */

typedef struct {
    double *x2;
    int64_t *i;
    int64_t *e;
    int64_t len;
    int64_t cap;
} found_buf;

static int found_push(found_buf *f, double x, int64_t i, int64_t e)
{
    if (f->len == f->cap) {
        const int64_t cap = f->cap ? f->cap * 2 : 64;
        double *nx = realloc(f->x2, (size_t)cap * sizeof(double));
        if (!nx)
            return 1;
        f->x2 = nx;
        int64_t *ni = realloc(f->i, (size_t)cap * sizeof(int64_t));
        if (!ni)
            return 1;
        f->i = ni;
        int64_t *ne = realloc(f->e, (size_t)cap * sizeof(int64_t));
        if (!ne)
            return 1;
        f->e = ne;
        f->cap = cap;
    }
    f->x2[f->len] = x;
    f->i[f->len] = i;
    f->e[f->len] = e;
    f->len += 1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Exported entry points (ctypes ABI).                                 */

int32_t repro_scan_mss(const int64_t *mat, int64_t n, int64_t k,
                       const double *probs, const double *inv_p, double eps,
                       double *out_best, int64_t *out_pos, int64_t *out_work)
{
    return scan_best(mat, n, k, probs, inv_p, 1, k == 2, eps, out_best,
                     out_pos, out_work);
}

int32_t repro_scan_mss_min_length(const int64_t *mat, int64_t n, int64_t k,
                                  const double *probs, const double *inv_p,
                                  int64_t min_length, double eps,
                                  double *out_best, int64_t *out_pos,
                                  int64_t *out_work)
{
    return scan_best(mat, n, k, probs, inv_p, min_length, 0, eps, out_best,
                     out_pos, out_work);
}

/* Port of ``scan_top_t`` / ``topt_row``. */
int32_t repro_scan_top_t(const int64_t *mat, int64_t n, int64_t k,
                         const double *probs, const double *inv_p,
                         int64_t t, double eps,
                         double *heap_x2, int64_t *heap_i, int64_t *heap_e,
                         int64_t *out_work)
{
    int64_t *bases = malloc((size_t)k * sizeof(int64_t));
    if (!bases)
        return 1;
    for (int64_t j = 0; j < t; j++) {
        heap_x2[j] = 0.0;
        heap_i[j] = -1;
        heap_e[j] = -1;
    }
    const int64_t stride = n + 1;
    double bound = 0.0;
    int64_t evaluated = 0;
    int64_t skipped = 0;
    for (int64_t i = n - 1; i >= 0; i--) {
        load_bases(mat, stride, i, k, bases);
        int64_t e = i + 1;
        while (e <= n) {
            const double L = (double)(e - i);
            const double x2 =
                x2_generic(mat, stride, i, e, L, k, inv_p, bases);
            evaluated += 1;
            if (x2 > bound && t > 0) {
                heap_replace(heap_x2, heap_i, heap_e, t, x2, i, e);
                bound = heap_x2[0];
            }
            if (x2 <= bound) {
                /* Chain-cover skip against the t-th best value. */
                const double root = root_generic(mat, stride, i, e, L, k,
                                                 probs, x2, bound, bases, 1);
                if (root >= 1.0) {
                    const int64_t jump = safe_jump(root, eps, n, e);
                    skipped += jump;
                    e += jump + 1;
                    continue;
                }
            }
            e += 1;
        }
    }
    free(bases);
    out_work[0] = evaluated;
    out_work[1] = skipped;
    return 0;
}

int32_t repro_scan_threshold(const int64_t *mat, int64_t n, int64_t k,
                             const double *probs, const double *inv_p,
                             double alpha0, int32_t has_limit, int64_t limit,
                             int32_t count_only, double eps,
                             double **out_x2, int64_t **out_i, int64_t **out_e,
                             int64_t *out_found, int64_t *out_match,
                             int32_t *out_truncated, int64_t *out_work)
{
    int64_t *bases = malloc((size_t)k * sizeof(int64_t));
    if (!bases)
        return 1;
    const int64_t stride = n + 1;
    found_buf found = {NULL, NULL, NULL, 0, 0};
    int64_t match_count = 0;
    int truncated = 0;
    int64_t evaluated = 0;
    int64_t skipped = 0;
    for (int64_t i = n - 1; i >= 0 && !truncated; i--) {
        load_bases(mat, stride, i, k, bases);
        int64_t e = i + 1;
        while (e <= n) {
            const double L = (double)(e - i);
            const double x2 =
                x2_generic(mat, stride, i, e, L, k, inv_p, bases);
            evaluated += 1;
            if (x2 > alpha0) {
                match_count += 1;
                if (!count_only) {
                    if (found_push(&found, x2, i, e)) {
                        free(bases);
                        free(found.x2);
                        free(found.i);
                        free(found.e);
                        return 1;
                    }
                    if (has_limit && found.len >= limit) {
                        truncated = 1;
                        break;
                    }
                }
                /* A qualifying substring: neighbours may qualify too, so
                 * no skip is provable.  Advance by one. */
                e += 1;
                continue;
            }
            const double root = root_generic(mat, stride, i, e, L, k, probs,
                                             x2, alpha0, bases, 1);
            if (root >= 1.0) {
                const int64_t jump = safe_jump(root, eps, n, e);
                skipped += jump;
                e += jump + 1;
            } else {
                e += 1;
            }
        }
    }
    free(bases);
    *out_x2 = found.x2;
    *out_i = found.i;
    *out_e = found.e;
    *out_found = found.len;
    *out_match = match_count;
    *out_truncated = truncated;
    out_work[0] = evaluated;
    out_work[1] = skipped;
    return 0;
}

void repro_free(void *ptr)
{
    free(ptr);
}

/* The next of ``count`` slots from a shared ``cursor`` (see claim_slot),
 * for callers that scan each claimed document themselves: the Python
 * ``ClaimCursor.claim``, so it and the lanes share one claim rule.    */
int64_t repro_claim(int64_t *cursor, int64_t count, double budget)
{
    return claim_slot(cursor, count, expiry_of(budget));
}

/* Best-substring scans of ``docs`` documents on LANES lanes.  Slot s is
 * the document with prefix matrix ``mats[s]`` and length ``ns[s]``;
 * lanes claim slots from ``cursor`` until they run out or ``budget``
 * seconds pass, and a claimed slot's best, (start, end) and (evaluated,
 * skipped) land at index s of the outputs (pairs at 2s, 2s + 1).  Calls
 * on several threads may share one cursor: each slot goes to exactly
 * one lane.  ``off`` is 1 for mss (``binary`` selects the k == 2 fast
 * path) and min_length for minlength.                                 */
int32_t repro_mine_lanes(const int64_t *const *mats, const int64_t *ns,
                         int64_t docs, int64_t *cursor, double budget,
                         int64_t k, const double *probs, const double *inv_p,
                         int64_t off, int32_t binary, double eps,
                         double *out_best, int64_t *out_pos,
                         int64_t *out_work)
{
    const scan_params m = params_of(k, probs, inv_p, off, binary, eps);
    claims c = {cursor, docs, expiry_of(budget), mats, ns, NULL, 0, NULL,
                out_best, out_pos, out_work};
    walk(&c, &m, binary);
    return 0;
}

/* Monte-Carlo calibration: ``codes`` is (t, n) row-major encoded null
 * draws.  Lanes claim trials from ``cursor``, build each trial's prefix
 * matrix into their own buffer and run the full mss scan, writing X²max
 * into out_best[trial].  Calls on several threads may share a cursor. */
int32_t repro_calibrate_lanes(const int64_t *codes, int64_t t, int64_t n,
                              int64_t k, const double *probs,
                              const double *inv_p, double eps,
                              int64_t *cursor, double *out_best)
{
    int64_t *bufs = malloc((size_t)(LANES * k * (n + 1)) * sizeof(int64_t));
    if (!bufs)
        return 1;
    const scan_params m = params_of(k, probs, inv_p, 1, k == 2, eps);
    claims c = {cursor, t, INFINITY, NULL, NULL, codes, n, bufs,
                out_best, NULL, NULL};
    walk(&c, &m, k == 2);
    free(bufs);
    return 0;
}
