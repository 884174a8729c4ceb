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
 * Conventions shared by every entry point:
 *   - ``mat`` is a row-major (k, n + 1) int64 prefix-count matrix (the
 *     ``PrefixCountIndex.counts_matrix()`` layout);
 *   - ``probs``/``inv_p`` are the model probabilities and their
 *     reciprocals, length k;
 *   - ``eps`` is ``repro.core.skip.ROOT_EPSILON`` (passed in so the
 *     constant has a single Python source of truth);
 *   - counters use int64; return codes: 0 ok, 1 allocation failure.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

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
/* Row walkers: one start position i, every end position from e.       */

/* Port of ``mss_row_binary`` (k == 2 fast path). */
static void row_binary(const int64_t *pref1, int64_t n, int64_t i, int64_t e,
                       double *best, int64_t *best_start, int64_t *best_end,
                       double p0, double p1, double eps,
                       int64_t *evaluated, int64_t *skipped)
{
    const double inv_lp = 1.0 / (p0 * p1);
    const double two_p0 = 2.0 * p0;
    const double two_p1 = 2.0 * p1;
    const int64_t base = pref1[i];
    while (e <= n) {
        const double L = (double)(e - i);
        const double y1 = (double)(pref1[e] - base);
        const double d = y1 - L * p1;
        const double x2 = d * d * inv_lp / L;
        *evaluated += 1;
        if (x2 > *best) {
            *best = x2;
            *best_start = i;
            *best_end = e;
        }
        /* Chain-cover skip: min over the two per-character roots. */
        const double c_common = (x2 - *best) * L;
        const double y0 = L - y1;
        const double b0 = 2.0 * y0 - L * two_p0 - p0 * *best;
        const double c0 = c_common * p0;
        const double r0 = (-b0 + sqrt(b0 * b0 - 4.0 * p1 * c0)) / (2.0 * p1);
        const double b1 = 2.0 * y1 - L * two_p1 - p1 * *best;
        const double c1 = c_common * p1;
        const double r1 = (-b1 + sqrt(b1 * b1 - 4.0 * p0 * c1)) / (2.0 * p0);
        const double root = r0 < r1 ? r0 : r1;
        if (root >= 1.0) {
            const int64_t jump = safe_jump(root, eps, n, e);
            *skipped += jump;
            e += jump + 1;
        } else {
            e += 1;
        }
    }
}

/* Port of ``mss_row_generic`` (any k; also the Problem 4 walker). */
static void row_generic(const int64_t *mat, int64_t stride, int64_t n,
                        int64_t i, int64_t e,
                        double *best, int64_t *best_start, int64_t *best_end,
                        int64_t k, const double *probs, const double *inv_p,
                        double eps, int64_t *bases, int64_t *counts,
                        int64_t *evaluated, int64_t *skipped)
{
    for (int64_t j = 0; j < k; j++)
        bases[j] = mat[j * stride + i];
    while (e <= n) {
        const double L = (double)(e - i);
        double total = 0.0;
        for (int64_t j = 0; j < k; j++) {
            const int64_t y = mat[j * stride + e] - bases[j];
            counts[j] = y;
            total += (double)y * (double)y * inv_p[j];
        }
        const double x2 = total / L - L;
        *evaluated += 1;
        if (x2 > *best) {
            *best = x2;
            *best_start = i;
            *best_end = e;
        }
        const double c_common = (x2 - *best) * L;
        double root = INFINITY;
        for (int64_t j = 0; j < k; j++) {
            const double p = probs[j];
            const double a = 1.0 - p;
            const double b = 2.0 * (double)counts[j] - 2.0 * L * p - p * *best;
            const double c = c_common * p;
            const double r = (-b + sqrt(b * b - 4.0 * a * c)) / (2.0 * a);
            if (r < root) {
                root = r;
                if (root < 1.0)
                    break;
            }
        }
        if (root >= 1.0) {
            const int64_t jump = safe_jump(root, eps, n, e);
            *skipped += jump;
            e += jump + 1;
        } else {
            e += 1;
        }
    }
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

/* Port of ``topt_row``. */
static void row_topt(const int64_t *mat, int64_t stride, int64_t n,
                     int64_t i, int64_t e,
                     double *hx, int64_t *hi, int64_t *he, int64_t t,
                     double *bound, int64_t k,
                     const double *probs, const double *inv_p, double eps,
                     int64_t *bases, int64_t *counts,
                     int64_t *evaluated, int64_t *skipped)
{
    for (int64_t j = 0; j < k; j++)
        bases[j] = mat[j * stride + i];
    while (e <= n) {
        const double L = (double)(e - i);
        double total = 0.0;
        for (int64_t j = 0; j < k; j++) {
            const int64_t y = mat[j * stride + e] - bases[j];
            counts[j] = y;
            total += (double)y * (double)y * inv_p[j];
        }
        const double x2 = total / L - L;
        *evaluated += 1;
        if (x2 > *bound && t > 0) {
            heap_replace(hx, hi, he, t, x2, i, e);
            *bound = hx[0];
        }
        if (x2 <= *bound) {
            /* Chain-cover skip against the t-th best value. */
            const double c_common = (x2 - *bound) * L;
            double root = INFINITY;
            for (int64_t j = 0; j < k; j++) {
                const double p = probs[j];
                const double a = 1.0 - p;
                const double b =
                    2.0 * (double)counts[j] - 2.0 * L * p - p * *bound;
                const double c = c_common * p;
                const double r =
                    (-b + sqrt(b * b - 4.0 * a * c)) / (2.0 * a);
                if (r < root) {
                    root = r;
                    if (root < 1.0)
                        break;
                }
            }
            if (root >= 1.0) {
                const int64_t jump = safe_jump(root, eps, n, e);
                *skipped += jump;
                e += jump + 1;
                continue;
            }
        }
        e += 1;
    }
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
/* Shared best-substring scan core: scan_mss is off == 1 with the binary
 * fast path at k == 2; scan_mss_min_length is off == min_length with the
 * generic walker for every k (as the reference does).                  */

static void scan_best_core(const int64_t *mat, int64_t n, int64_t k,
                           const double *probs, const double *inv_p,
                           int64_t off, int use_binary, double eps,
                           int64_t *bases, int64_t *counts,
                           double *out_best, int64_t *out_start,
                           int64_t *out_end, int64_t *out_work)
{
    const int64_t stride = n + 1;
    double best = -1.0;
    int64_t best_start = 0;
    int64_t best_end = off;
    int64_t evaluated = 0;
    int64_t skipped = 0;
    if (use_binary) {
        const int64_t *pref1 = mat + stride;
        const double p0 = probs[0];
        const double p1 = probs[1];
        for (int64_t i = n - off; i >= 0; i--)
            row_binary(pref1, n, i, i + off, &best, &best_start, &best_end,
                       p0, p1, eps, &evaluated, &skipped);
    } else {
        for (int64_t i = n - off; i >= 0; i--)
            row_generic(mat, stride, n, i, i + off, &best, &best_start,
                        &best_end, k, probs, inv_p, eps, bases, counts,
                        &evaluated, &skipped);
    }
    *out_best = best;
    *out_start = best_start;
    *out_end = best_end;
    out_work[0] = evaluated;
    out_work[1] = skipped;
}

/* ------------------------------------------------------------------ */
/* Exported entry points (ctypes ABI).                                 */

int32_t repro_scan_mss(const int64_t *mat, int64_t n, int64_t k,
                       const double *probs, const double *inv_p, double eps,
                       double *out_best, int64_t *out_pos, int64_t *out_work)
{
    int64_t *scratch = NULL;
    if (k != 2) {
        scratch = malloc((size_t)(2 * k) * sizeof(int64_t));
        if (!scratch)
            return 1;
    }
    scan_best_core(mat, n, k, probs, inv_p, 1, k == 2, eps,
                   scratch, scratch ? scratch + k : NULL,
                   out_best, &out_pos[0], &out_pos[1], out_work);
    free(scratch);
    return 0;
}

int32_t repro_scan_mss_min_length(const int64_t *mat, int64_t n, int64_t k,
                                  const double *probs, const double *inv_p,
                                  int64_t min_length, double eps,
                                  double *out_best, int64_t *out_pos,
                                  int64_t *out_work)
{
    int64_t *scratch = malloc((size_t)(2 * k) * sizeof(int64_t));
    if (!scratch)
        return 1;
    scan_best_core(mat, n, k, probs, inv_p, min_length, 0, eps,
                   scratch, scratch + k,
                   out_best, &out_pos[0], &out_pos[1], out_work);
    free(scratch);
    return 0;
}

int32_t repro_scan_top_t(const int64_t *mat, int64_t n, int64_t k,
                         const double *probs, const double *inv_p,
                         int64_t t, double eps,
                         double *heap_x2, int64_t *heap_i, int64_t *heap_e,
                         int64_t *out_work)
{
    int64_t *scratch = malloc((size_t)(2 * k) * sizeof(int64_t));
    if (!scratch)
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
    for (int64_t i = n - 1; i >= 0; i--)
        row_topt(mat, stride, n, i, i + 1, heap_x2, heap_i, heap_e, t,
                 &bound, k, probs, inv_p, eps, scratch, scratch + k,
                 &evaluated, &skipped);
    out_work[0] = evaluated;
    out_work[1] = skipped;
    free(scratch);
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
    int64_t *scratch = malloc((size_t)(2 * k) * sizeof(int64_t));
    if (!scratch)
        return 1;
    int64_t *bases = scratch;
    int64_t *counts = scratch + k;
    const int64_t stride = n + 1;
    found_buf found = {NULL, NULL, NULL, 0, 0};
    int64_t match_count = 0;
    int truncated = 0;
    int64_t evaluated = 0;
    int64_t skipped = 0;
    for (int64_t i = n - 1; i >= 0 && !truncated; i--) {
        for (int64_t j = 0; j < k; j++)
            bases[j] = mat[j * stride + i];
        int64_t e = i + 1;
        while (e <= n) {
            const double L = (double)(e - i);
            double total = 0.0;
            for (int64_t j = 0; j < k; j++) {
                const int64_t y = mat[j * stride + e] - bases[j];
                counts[j] = y;
                total += (double)y * (double)y * inv_p[j];
            }
            const double x2 = total / L - L;
            evaluated += 1;
            if (x2 > alpha0) {
                match_count += 1;
                if (!count_only) {
                    if (found_push(&found, x2, i, e)) {
                        free(scratch);
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
            const double c_common = (x2 - alpha0) * L;
            double root = INFINITY;
            for (int64_t j = 0; j < k; j++) {
                const double p = probs[j];
                const double a = 1.0 - p;
                const double b =
                    2.0 * (double)counts[j] - 2.0 * L * p - p * alpha0;
                const double c = c_common * p;
                const double r =
                    (-b + sqrt(b * b - 4.0 * a * c)) / (2.0 * a);
                if (r < root) {
                    root = r;
                    if (root < 1.0)
                        break;
                }
            }
            if (root >= 1.0) {
                const int64_t jump = safe_jump(root, eps, n, e);
                skipped += jump;
                e += jump + 1;
            } else {
                e += 1;
            }
        }
    }
    free(scratch);
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

/* Monte-Carlo calibration chunk: ``codes`` is (t, n) row-major encoded
 * null draws; each trial builds its prefix matrix into the call's own
 * scratch and runs the full mss scan, writing X²max into
 * out_best[trial].  Calls on disjoint row slices may run concurrently. */
int32_t repro_calibrate_chunk(const int64_t *codes, int64_t t, int64_t n,
                              int64_t k, const double *probs,
                              const double *inv_p, double eps,
                              double *out_best)
{
    const int64_t stride = n + 1;
    int64_t *mat = malloc((size_t)(k * stride) * sizeof(int64_t));
    int64_t *scratch = malloc((size_t)(2 * k) * sizeof(int64_t));
    if (!mat || !scratch) {
        free(mat);
        free(scratch);
        return 1;
    }
    for (int64_t trial = 0; trial < t; trial++) {
        const int64_t *row = codes + trial * n;
        for (int64_t j = 0; j < k; j++) {
            int64_t *pref = mat + j * stride;
            int64_t cum = 0;
            pref[0] = 0;
            for (int64_t pos = 0; pos < n; pos++) {
                cum += row[pos] == j;
                pref[pos + 1] = cum;
            }
        }
        int64_t bs, be;
        int64_t work[2];
        scan_best_core(mat, n, k, probs, inv_p, 1, k == 2, eps,
                       scratch, scratch + k,
                       &out_best[trial], &bs, &be, work);
    }
    free(mat);
    free(scratch);
    return 0;
}
