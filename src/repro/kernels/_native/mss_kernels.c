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
 * the core mostly waiting.  ``walk`` keeps several best-substring scans
 * (mss, with its k = 2 fast path, and minlength) in flight per call and
 * advances each by one evaluation per step, so the chains of different
 * documents (or calibration trials) overlap.  Each lane runs exactly the
 * single-document scan's operations, so floats and counters stay ``==``.
 * Two rules keep the lanes overlapping:
 *   - the root min has no ``break``: it runs over all k symbols.  The
 *     reference breaks only once the root is below 1, after which the
 *     min can only fall further, so no skip is taken either way, and a
 *     NaN root loses every ``<`` comparison in both forms.  With the
 *     break the lanes ran slower: at k = 4 the fastest of 11 runs took
 *     38 ns per evaluation, against 24 ns without;
 *   - a lane advances with selects, not branches: a mispredicted skip
 *     would flush every lane in flight.
 * A lone scan (``scan_mss`` and friends) shares the same arithmetic but
 * keeps the reference's shape: branches, which let it start its next
 * evaluation speculatively, the early ``break``, and a copy of row i's
 * prefix counts at k > 2; each measured faster for one chain alone.
 *
 * Two lane steps.  The scalar step (``scan_visit`` with ``lanes``)
 * advances LANES = 4 lanes one after another; ``y`` is re-read from the
 * prefix matrix rather than kept per lane, so a lane's state does not
 * grow with k.  The vector step (``vstep``) advances a group of four
 * lanes with one AVX2 instruction per operation, so the divider and the
 * square-root unit take four doubles at a time.  It is compiled under
 * ``#if defined(__x86_64__)`` with ``__attribute__((target("avx2")))``
 * (never ``"fma"``: contraction would change the roundings), and
 * ``walk`` takes it when ``__builtin_cpu_supports("avx2")`` says the CPU
 * has it; every other CPU, and a build with ``-DREPRO_SCALAR_LANES``
 * (the test seam that keeps the scalar step covered on AVX2 hosts),
 * runs the scalar step.  ``repro_lane_step`` reports which one runs.
 * The vector step keeps bit-identity by these rules:
 *   - each vector expression mirrors ``x2_generic``/``root_generic``
 *     (the lanes form, with no early break) and ``x2_binary``/
 *     ``root_binary`` operation for operation, in the same order;
 *     vector add, sub, mul, div and sqrt round exactly like the scalar
 *     ones, and negation flips the sign bit, as ``-b`` does;
 *   - ``r < root ? r : root`` is ``_mm256_min_pd(r, root)`` and the
 *     jump clamps ``rj < lim ? rj : lim`` and ``rj > 0.0 ? rj : 0.0`` are
 *     ``_mm256_min_pd(rj, lim)`` and ``_mm256_max_pd(rj, 0)``: min/max
 *     return their second operand unless the first compares strictly
 *     below (above) it, which gives the C's NaN and +-0 results;
 *   - int64 <-> double conversions use the 2^52 magic-number trick,
 *     exact for 0 <= v < 2^52 (AVX2 has no ``cvtqq2pd``): counts, L and
 *     n - e are all in that range; truncation is
 *     ``_mm256_round_pd(..., _MM_FROUND_TO_ZERO)``;
 *   - prefix counts are gathered with ``_mm256_mask_i64gather_epi64`` on
 *     absolute addresses (each lane reads its own matrix), masked by the
 *     group's live lanes so an idle lane reads nothing;
 *   - a lane's k counts are gathered once per evaluation and kept for
 *     the root loop, for k <= VECTOR_MAX_K; larger alphabets take the
 *     scalar step.
 * One group rule serves documents and trials alike: a call runs GROUPS
 * = 2 vector groups (eight lanes), which keeps the divider busy while
 * one group waits on its gathers, and compacts them into one group once
 * four or fewer scans are live.  The last two scans finish on the
 * scalar step and the very last on the lone step: with nothing to
 * overlap, a wide step only wastes lanes.
 *
 * In-lane indexing.  A slot is an encoded string (a document's codes,
 * or one row of a calibration chunk's draws) and its length.  The lane
 * that claims a slot builds the slot's (k, n + 1) prefix matrix into
 * its own buffer, so no matrix exists before its scan starts or after
 * it ends, and the build runs on the mining thread.  A lane's buffer
 * grows (and never shrinks) when a claim is longer than any before it,
 * so a call holds about one matrix per lane, each as long as the
 * longest string that lane has scanned.
 *
 * Claims.  A run's slots (documents, longest first, or trials) are
 * claimed through a ``cursor`` that every call of the run shares:
 * ``cursor[0]`` is the next slot and ``cursor[1]`` the next seat, and
 * ``taken`` holds one claim flag per slot, set by an atomic exchange, so
 * every slot is claimed exactly once however many calls share the
 * cursor.  Each call takes the next seat, and a call of seat t <
 * ``threads`` starts its lanes on snake stripes: lane l starts on slot
 * l * threads + t for even l and l * threads + (threads - 1 - t) for odd
 * l.  With eight lanes a call's first claims can take a whole job, so
 * they alone decide how evenly the threads share it: plain stripes
 * would give seat 0 the longer document of every pair, snake stripes
 * alternate.  A lane whose striped slot is past the end starts idle.
 * Every later claim, and every claim of a seat at or past ``threads``,
 * takes the cursor's next slot whose flag is still clear.
 *
 * Conventions shared by every entry point:
 *   - ``mat`` is a row-major (k, n + 1) int64 prefix-count matrix (the
 *     ``PrefixCountIndex.counts_matrix()`` layout); the lane entry
 *     points take encoded strings and build it themselves;
 *   - ``probs``/``inv_p`` are the model probabilities and their
 *     reciprocals, length k;
 *   - ``eps`` is ``repro.core.skip.ROOT_EPSILON`` (passed in so the
 *     constant has a single Python source of truth);
 *   - a ``budget`` is the seconds left before the run's deadline
 *     (INFINITY for none), checked before every claim;
 *   - counters use int64; return codes: 0 ok, 1 allocation failure
 *     (a lane whose buffer cannot grow stops the call's claims; the
 *     scans in flight finish).
 */

#define _POSIX_C_SOURCE 199309L

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <time.h>

#if defined(__x86_64__) && !defined(REPRO_SCALAR_LANES)
#define REPRO_VECTOR_LANES 1
#include <immintrin.h>
#endif

/* Lanes per scalar walk and per vector group. */
#define LANES 4
/* Vector groups per call, for documents and trials alike. */
#define GROUPS 2
/* The largest k whose counts the vector step keeps per lane. */
#define VECTOR_MAX_K 32

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
    int64_t *buf;       /* lanes: the lane's own prefix-matrix buffer */
    int64_t cap;        /* its capacity, in int64 */
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

/* Claim a slot below ``count``: ``stripe`` itself when it is >= 0 and
 * still free (a lane's first claim; a stripe past the end claims
 * nothing), else the cursor's next free slot.  -1 once the cursor has
 * passed ``count`` or the run's deadline has passed (then nothing is
 * claimed).                                                           */
static int64_t claim_slot(int64_t *cursor, uint8_t *taken, int64_t count,
                          double expires, int64_t stripe)
{
    if (expires != INFINITY && monotonic_seconds() >= expires)
        return -1;
    if (stripe >= 0) {
        if (stripe >= count)
            return -1;
        if (!__atomic_exchange_n(taken + stripe, 1, __ATOMIC_RELAXED))
            return stripe;
    }
    for (;;) {
        const int64_t slot = __atomic_fetch_add(cursor, 1, __ATOMIC_RELAXED);
        if (slot >= count)
            return -1;
        if (!__atomic_exchange_n(taken + slot, 1, __ATOMIC_RELAXED))
            return slot;
    }
}

typedef struct {
    int64_t *cursor;
    uint8_t *taken;
    int64_t count;
    double expires;
    int64_t seat, threads; /* this call's stripe (seat < threads) */
    /* one encoded string and its length per slot */
    const int64_t *const *codes;
    const int64_t *ns;
    int failed; /* a lane buffer could not grow: claim nothing more */
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

/* Start a lane on ``stripe`` (see claim_slot) or the next free slot; 0
 * once nothing is left for it.  The lane builds the slot's prefix matrix
 * into its own buffer, grown first if the slot is longer than any it
 * has held.  A slot with no rows (min_length > n) is finished on the
 * spot, and the lane moves on to the cursor.                          */
static int lane_claim(claims *c, const scan_params *m, scan_state *s,
                      int64_t stripe)
{
    for (;;) {
        const int64_t slot =
            c->failed ? -1
                      : claim_slot(c->cursor, c->taken, c->count, c->expires,
                                   stripe);
        stripe = -1;
        if (slot < 0) {
            s->mat = NULL;
            return 0;
        }
        const int64_t n = c->ns[slot];
        scan_start(s, m, NULL, n, slot);
        if (s->i < 0) {
            scan_finish(c, s);
            continue;
        }
        const int64_t need = m->k * (n + 1);
        if (need > s->cap) {
            free(s->buf);
            s->buf = malloc((size_t)need * sizeof(int64_t));
            s->cap = s->buf ? need : 0;
            if (!s->buf) {
                c->failed = 1;
                return 0;
            }
        }
        build_prefix(c->codes[slot], n, m->k, s->buf);
        s->mat = s->buf;
        return 1;
    }
}

/* Give lanes [0, width) empty buffers and their first claims, on snake
 * stripes: lane l of seat t < threads starts on slot l * threads + t
 * for even l and l * threads + (threads - 1 - t) for odd l.  Returns
 * the live lanes.                                                     */
static int lanes_start(claims *c, const scan_params *m, scan_state *lanes,
                       int width)
{
    const int64_t t = c->seat, threads = c->threads;
    int live = 0;
    for (int l = 0; l < width; l++) {
        lanes[l].buf = NULL;
        lanes[l].cap = 0;
        const int64_t stripe =
            t >= threads ? -1
                         : l * threads + (l % 2 ? threads - 1 - t : t);
        live += lane_claim(c, m, &lanes[l], stripe);
    }
    return live;
}

static void lanes_free(scan_state *lanes, int width)
{
    for (int l = 0; l < width; l++)
        free(lanes[l].buf);
}

/* Advance the scalar lanes [0, width) until the claims run dry.  A scan
 * left on its own (a one-document run, or the last scan of a run) has
 * nothing to overlap with, so it finishes with the lone scan's step.  */
static inline __attribute__((always_inline)) void
lanes_run(claims *c, const scan_params *m, const int binary,
          scan_state *lanes, int width, int live)
{
    while (live > 0) {
        for (int l = 0; l < width; l++) {
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
                if (!lane_claim(c, m, s, -1))
                    live -= 1;
            }
        }
    }
}

static void walk_scalar(claims *c, const scan_params *m, int binary)
{
    scan_state lanes[LANES];
    const int live = lanes_start(c, m, lanes, LANES);
    if (binary)
        lanes_run(c, m, 1, lanes, LANES, live);
    else
        lanes_run(c, m, 0, lanes, LANES, live);
    lanes_free(lanes, LANES);
}

#ifdef REPRO_VECTOR_LANES
/* ------------------------------------------------------------------ */
/* The vector step: four lanes per AVX2 instruction (rules in the
 * header).                                                            */

#define AVX2 __attribute__((target("avx2")))
#define AVX2_INLINE static inline __attribute__((always_inline, target("avx2")))

/* One group of LANES scans, one lane per 64-bit element. */
typedef struct {
    __m256i base, stride; /* the lane's matrix address and row stride, bytes */
    __m256i n, i, e;
    __m256d best;
    __m256i best_start, best_end, evaluated, skipped;
    __m256i live;         /* all ones on a live lane */
} vgroup;

/* The model, per symbol, as the scalar expressions compute it. */
typedef struct {
    int64_t k, off;
    double eps;
    double inv_p[VECTOR_MAX_K], probs[VECTOR_MAX_K];
    double two_a[VECTOR_MAX_K], four_a[VECTOR_MAX_K]; /* 2.0 * a, 4.0 * a */
    double p0, p1, inv_lp, two_p0, two_p1, four_p0, four_p1;
} vmodel;

static void vmodel_of(vmodel *v, const scan_params *m)
{
    v->k = m->k;
    v->off = m->off;
    v->eps = m->eps;
    for (int64_t j = 0; j < m->k; j++) {
        const double a = 1.0 - m->probs[j];
        v->inv_p[j] = m->inv_p[j];
        v->probs[j] = m->probs[j];
        v->two_a[j] = 2.0 * a;
        v->four_a[j] = 4.0 * a;
    }
    v->p0 = m->bm.p0;
    v->p1 = m->bm.p1;
    v->inv_lp = m->bm.inv_lp;
    v->two_p0 = m->bm.two_p0;
    v->two_p1 = m->bm.two_p1;
    v->four_p0 = 4.0 * m->bm.p0;
    v->four_p1 = 4.0 * m->bm.p1;
}

#define MAGIC 4503599627370496.0 /* 2^52 */

/* Exact for 0 <= v < 2^52. */
AVX2_INLINE __m256d i64_to_f64(__m256i v)
{
    const __m256d magic = _mm256_set1_pd(MAGIC);
    return _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(v, _mm256_castpd_si256(magic))),
        magic);
}

/* Exact for integral 0 <= v < 2^52. */
AVX2_INLINE __m256i f64_to_i64(__m256d v)
{
    const __m256d magic = _mm256_set1_pd(MAGIC);
    return _mm256_xor_si256(_mm256_castpd_si256(_mm256_add_pd(v, magic)),
                            _mm256_castpd_si256(magic));
}

/* Prefix count at byte offset ``pos8`` of row address ``row``. */
AVX2_INLINE __m256i vgather(__m256i row, __m256i pos8, __m256i live)
{
    return _mm256_mask_i64gather_epi64(
        _mm256_setzero_si256(), (const long long *)0,
        _mm256_add_epi64(row, pos8), live, 1);
}

/* One evaluation on every lane of ``g``: scan_visit's lanes form. */
AVX2_INLINE void vstep(vgroup *g, const vmodel *v, const int binary,
                       __m256d *ys)
{
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d two = _mm256_set1_pd(2.0);
    const __m256d sign = _mm256_set1_pd(-0.0);
    const __m256i one_i = _mm256_set1_epi64x(1);
    const __m256i i8 = _mm256_slli_epi64(g->i, 3);
    const __m256i e8 = _mm256_slli_epi64(g->e, 3);
    const __m256d L = i64_to_f64(_mm256_sub_epi64(g->e, g->i));
    __m256d x2, y1 = L;
    if (binary) {
        const __m256i row1 = _mm256_add_epi64(g->base, g->stride);
        y1 = i64_to_f64(_mm256_sub_epi64(vgather(row1, e8, g->live),
                                         vgather(row1, i8, g->live)));
        const __m256d d =
            _mm256_sub_pd(y1, _mm256_mul_pd(L, _mm256_set1_pd(v->p1)));
        x2 = _mm256_div_pd(
            _mm256_mul_pd(_mm256_mul_pd(d, d), _mm256_set1_pd(v->inv_lp)), L);
    } else {
        __m256i row = g->base;
        __m256d total = _mm256_setzero_pd();
        for (int64_t j = 0; j < v->k; j++) {
            const __m256d y = i64_to_f64(_mm256_sub_epi64(
                vgather(row, e8, g->live), vgather(row, i8, g->live)));
            ys[j] = y;
            total = _mm256_add_pd(
                total, _mm256_mul_pd(_mm256_mul_pd(y, y),
                                     _mm256_set1_pd(v->inv_p[j])));
            row = _mm256_add_epi64(row, g->stride);
        }
        x2 = _mm256_sub_pd(_mm256_div_pd(total, L), L);
    }
    g->evaluated = _mm256_add_epi64(g->evaluated, one_i);
    const __m256d better = _mm256_cmp_pd(x2, g->best, _CMP_GT_OQ);
    const __m256i better_i = _mm256_castpd_si256(better);
    g->best = _mm256_blendv_pd(g->best, x2, better);
    g->best_start = _mm256_blendv_epi8(g->best_start, g->i, better_i);
    g->best_end = _mm256_blendv_epi8(g->best_end, g->e, better_i);
    const __m256d best = g->best;
    const __m256d c_common = _mm256_mul_pd(_mm256_sub_pd(x2, best), L);
    __m256d root;
    if (binary) {
        const __m256d p0 = _mm256_set1_pd(v->p0);
        const __m256d p1 = _mm256_set1_pd(v->p1);
        const __m256d y0 = _mm256_sub_pd(L, y1);
        const __m256d b0 = _mm256_sub_pd(
            _mm256_sub_pd(_mm256_mul_pd(two, y0),
                          _mm256_mul_pd(L, _mm256_set1_pd(v->two_p0))),
            _mm256_mul_pd(p0, best));
        const __m256d c0 = _mm256_mul_pd(c_common, p0);
        const __m256d r0 = _mm256_div_pd(
            _mm256_add_pd(
                _mm256_xor_pd(b0, sign),
                _mm256_sqrt_pd(_mm256_sub_pd(
                    _mm256_mul_pd(b0, b0),
                    _mm256_mul_pd(_mm256_set1_pd(v->four_p1), c0)))),
            _mm256_set1_pd(v->two_p1));
        const __m256d b1 = _mm256_sub_pd(
            _mm256_sub_pd(_mm256_mul_pd(two, y1),
                          _mm256_mul_pd(L, _mm256_set1_pd(v->two_p1))),
            _mm256_mul_pd(p1, best));
        const __m256d c1 = _mm256_mul_pd(c_common, p1);
        const __m256d r1 = _mm256_div_pd(
            _mm256_add_pd(
                _mm256_xor_pd(b1, sign),
                _mm256_sqrt_pd(_mm256_sub_pd(
                    _mm256_mul_pd(b1, b1),
                    _mm256_mul_pd(_mm256_set1_pd(v->four_p0), c1)))),
            _mm256_set1_pd(v->two_p0));
        root = _mm256_min_pd(r0, r1);
    } else {
        const __m256d two_L = _mm256_mul_pd(two, L);
        root = _mm256_set1_pd(INFINITY);
        for (int64_t j = 0; j < v->k; j++) {
            const __m256d p = _mm256_set1_pd(v->probs[j]);
            const __m256d b = _mm256_sub_pd(
                _mm256_sub_pd(_mm256_mul_pd(two, ys[j]),
                              _mm256_mul_pd(two_L, p)),
                _mm256_mul_pd(p, best));
            const __m256d c = _mm256_mul_pd(c_common, p);
            const __m256d r = _mm256_div_pd(
                _mm256_add_pd(
                    _mm256_xor_pd(b, sign),
                    _mm256_sqrt_pd(_mm256_sub_pd(
                        _mm256_mul_pd(b, b),
                        _mm256_mul_pd(_mm256_set1_pd(v->four_a[j]), c)))),
                _mm256_set1_pd(v->two_a[j]));
            root = _mm256_min_pd(r, root);
        }
    }
    /* The scalar lanes' branch-free safe_jump, lane by lane. */
    const __m256d lim = i64_to_f64(_mm256_sub_epi64(g->n, g->e));
    __m256d rj = _mm256_sub_pd(root, _mm256_set1_pd(v->eps));
    rj = _mm256_min_pd(rj, lim);
    rj = _mm256_max_pd(rj, _mm256_setzero_pd());
    const __m256i jump = _mm256_and_si256(
        f64_to_i64(_mm256_round_pd(rj, _MM_FROUND_TO_ZERO |
                                           _MM_FROUND_NO_EXC)),
        _mm256_castpd_si256(_mm256_cmp_pd(root, one, _CMP_GE_OQ)));
    g->skipped = _mm256_add_epi64(g->skipped, jump);
    const __m256i next =
        _mm256_add_epi64(_mm256_add_epi64(g->e, jump), one_i);
    const __m256i row_done = _mm256_cmpgt_epi64(next, g->n);
    g->i = _mm256_add_epi64(g->i, row_done); /* i - 1 on a finished row */
    g->e = _mm256_blendv_epi8(
        next, _mm256_add_epi64(g->i, _mm256_set1_epi64x(v->off)), row_done);
}

/* Move the live lanes of [0, width) to the front; idle lanes keep their
 * buffers, so every lane still owns exactly one.                      */
AVX2 static void lanes_compact(scan_state *lanes, int width)
{
    int front = 0;
    for (int l = 0; l < width; l++) {
        if (!lanes[l].mat)
            continue;
        if (l != front) {
            const scan_state moved = lanes[front];
            lanes[front] = lanes[l];
            lanes[l] = moved;
        }
        front += 1;
    }
}

/* Lanes [0, LANES) of ``lanes`` as a vector group, and back.  An idle
 * lane loads as zeros: its gathers are masked off and its results are
 * never stored.                                                       */
AVX2_INLINE void vgroup_load(vgroup *g, const scan_state *lanes)
{
    int64_t base[LANES], stride[LANES], n[LANES], i[LANES], e[LANES];
    int64_t start[LANES], end[LANES], evaluated[LANES], skipped[LANES];
    int64_t live[LANES];
    double best[LANES];
    for (int l = 0; l < LANES; l++) {
        const scan_state *s = &lanes[l];
        live[l] = s->mat ? -1 : 0;
        if (!s->mat) {
            base[l] = stride[l] = n[l] = i[l] = e[l] = 0;
            start[l] = end[l] = evaluated[l] = skipped[l] = 0;
            best[l] = 0.0;
            continue;
        }
        base[l] = (int64_t)(uintptr_t)s->mat;
        stride[l] = (s->n + 1) * (int64_t)sizeof(int64_t);
        n[l] = s->n;
        i[l] = s->i;
        e[l] = s->e;
        best[l] = s->best;
        start[l] = s->best_start;
        end[l] = s->best_end;
        evaluated[l] = s->evaluated;
        skipped[l] = s->skipped;
    }
#define LOAD(v) _mm256_loadu_si256((const __m256i *)(v))
    g->base = LOAD(base);
    g->stride = LOAD(stride);
    g->n = LOAD(n);
    g->i = LOAD(i);
    g->e = LOAD(e);
    g->best = _mm256_loadu_pd(best);
    g->best_start = LOAD(start);
    g->best_end = LOAD(end);
    g->evaluated = LOAD(evaluated);
    g->skipped = LOAD(skipped);
    g->live = LOAD(live);
#undef LOAD
}

AVX2_INLINE void vgroup_store(const vgroup *g, scan_state *lanes)
{
    int64_t i[LANES], e[LANES], start[LANES], end[LANES];
    int64_t evaluated[LANES], skipped[LANES];
    double best[LANES];
#define STORE(p, v) _mm256_storeu_si256((__m256i *)(p), (v))
    STORE(i, g->i);
    STORE(e, g->e);
    STORE(start, g->best_start);
    STORE(end, g->best_end);
    STORE(evaluated, g->evaluated);
    STORE(skipped, g->skipped);
    _mm256_storeu_pd(best, g->best);
#undef STORE
    for (int l = 0; l < LANES; l++) {
        scan_state *s = &lanes[l];
        if (!s->mat)
            continue;
        s->i = i[l];
        s->e = e[l];
        s->best = best[l];
        s->best_start = start[l];
        s->best_end = end[l];
        s->evaluated = evaluated[l];
        s->skipped = skipped[l];
    }
}

/* The live lanes of ``g`` whose scan is done (i < 0), as a bit mask. */
AVX2_INLINE int vdone(const vgroup *g)
{
    const __m256i done =
        _mm256_and_si256(_mm256_cmpgt_epi64(_mm256_setzero_si256(), g->i),
                         g->live);
    return _mm256_movemask_pd(_mm256_castsi256_pd(done));
}

/* Step ``groups`` vector groups over lanes [0, groups * LANES) until a
 * scan finishes; returns the finished lanes as a bit mask.            */
AVX2_INLINE int vsteps(scan_state *lanes, const vmodel *v, const int binary,
                       const int groups)
{
    __m256d ys_a[VECTOR_MAX_K], ys_b[VECTOR_MAX_K];
    vgroup a, b;
    vgroup_load(&a, lanes);
    if (groups == 2)
        vgroup_load(&b, lanes + LANES);
    int done;
    for (;;) {
        vstep(&a, v, binary, ys_a);
        if (groups == 2)
            vstep(&b, v, binary, ys_b);
        done = vdone(&a);
        if (groups == 2)
            done |= vdone(&b) << LANES;
        if (done)
            break;
    }
    vgroup_store(&a, lanes);
    if (groups == 2)
        vgroup_store(&b, lanes + LANES);
    return done;
}

/* ``walk`` on the vector step: GROUPS groups while more than four scans
 * are live, one group while three or four are, then the scalar lanes
 * for the last two.                                                   */
AVX2_INLINE void walk_vector_as(claims *c, const scan_params *m,
                                const int binary)
{
    scan_state lanes[GROUPS * LANES];
    vmodel v;
    vmodel_of(&v, m);
    int groups = GROUPS;
    int live = lanes_start(c, m, lanes, GROUPS * LANES);
    while (live > 2) {
        if (groups == 2 && live <= LANES) {
            lanes_compact(lanes, 2 * LANES);
            groups = 1;
        }
        const int done = groups == 2 ? vsteps(lanes, &v, binary, 2)
                                     : vsteps(lanes, &v, binary, 1);
        for (int l = 0; l < groups * LANES; l++) {
            if (!(done >> l & 1))
                continue;
            scan_finish(c, &lanes[l]);
            if (!lane_claim(c, m, &lanes[l], -1))
                live -= 1;
        }
    }
    lanes_compact(lanes, groups * LANES);
    lanes_run(c, m, binary, lanes, live, live);
    lanes_free(lanes, GROUPS * LANES);
}

AVX2 static void walk_vector_binary(claims *c, const scan_params *m)
{
    walk_vector_as(c, m, 1);
}

AVX2 static void walk_vector_generic(claims *c, const scan_params *m)
{
    walk_vector_as(c, m, 0);
}
#endif /* REPRO_VECTOR_LANES */

/* Whether ``walk`` takes the vector step at alphabet size ``k``. */
static int vector_step_for(int64_t k)
{
#ifdef REPRO_VECTOR_LANES
    __builtin_cpu_init();
    return k <= VECTOR_MAX_K && __builtin_cpu_supports("avx2");
#else
    (void)k;
    return 0;
#endif
}

/* Mine the claims on this call's lanes, taking the next seat; 1 when a
 * lane buffer could not be allocated.                                 */
static int32_t walk(claims *c, const scan_params *m, int binary)
{
    c->seat = __atomic_fetch_add(c->cursor + 1, 1, __ATOMIC_RELAXED);
#ifdef REPRO_VECTOR_LANES
    if (vector_step_for(m->k)) {
        if (binary)
            walk_vector_binary(c, m);
        else
            walk_vector_generic(c, m);
        return c->failed;
    }
#endif
    walk_scalar(c, m, binary);
    return c->failed;
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

/* The next free slot below ``count`` from a shared ``cursor`` and its
 * ``taken`` flags (see claim_slot), for callers that scan each claimed
 * document themselves: the Python ``ClaimCursor.claim``, so it and the
 * lanes share one claim rule.  Takes no seat and no stripe.           */
int64_t repro_claim(int64_t *cursor, uint8_t *taken, int64_t count,
                    double budget)
{
    return claim_slot(cursor, taken, count, expiry_of(budget), -1);
}

/* Which lane step ``walk`` takes on this CPU (for k <= VECTOR_MAX_K):
 * 1 for the AVX2 vector step, 0 for the scalar lanes.                 */
int32_t repro_lane_step(void)
{
    return vector_step_for(1);
}

/* Best-substring scans of ``docs`` documents on this call's lanes.  Slot
 * s is the document with encoded string ``codes[s]`` (int64 codes in
 * range(k)) of length ``ns[s]``; lanes claim slots (see Claims in the
 * header: ``cursor``, ``taken`` and the run's ``threads``) until they
 * run out or ``budget`` seconds pass, build a claimed slot's prefix
 * matrix, and write its best, (start, end) and (evaluated, skipped) at
 * index s of the outputs (pairs at 2s, 2s + 1).  Calls on several
 * threads may share one cursor: each slot goes to exactly one lane.
 * ``off`` is 1 for mss (``binary`` selects the k == 2 fast path) and
 * min_length for minlength.                                           */
int32_t repro_mine_lanes(const int64_t *const *codes, const int64_t *ns,
                         int64_t docs, int64_t *cursor, uint8_t *taken,
                         int64_t threads, double budget, int64_t k,
                         const double *probs, const double *inv_p,
                         int64_t off, int32_t binary, double eps,
                         double *out_best, int64_t *out_pos,
                         int64_t *out_work)
{
    const scan_params m = params_of(k, probs, inv_p, off, binary, eps);
    claims c = {cursor, taken, docs, expiry_of(budget), 0, threads,
                codes, ns, 0, out_best, out_pos, out_work};
    return walk(&c, &m, binary);
}

/* Monte-Carlo calibration: ``codes`` is (t, n) row-major encoded null
 * draws.  Each row is a slot of ``repro_mine_lanes``'s claim path: lanes
 * claim trials as they claim documents, build each trial's prefix
 * matrix and run the full mss scan, writing X²max into out_best[trial].
 * Calls on several threads may share a cursor.                        */
int32_t repro_calibrate_lanes(const int64_t *codes, int64_t t, int64_t n,
                              int64_t k, const double *probs,
                              const double *inv_p, double eps,
                              int64_t *cursor, uint8_t *taken,
                              int64_t threads, double *out_best)
{
    /* t + 1: malloc(0) may return NULL */
    const int64_t **rows = malloc((size_t)(t + 1) * sizeof(*rows));
    int64_t *ns = malloc((size_t)(t + 1) * sizeof(*ns));
    int32_t rc = 1;
    if (rows && ns) {
        for (int64_t trial = 0; trial < t; trial++) {
            rows[trial] = codes + trial * n;
            ns[trial] = n;
        }
        const scan_params m = params_of(k, probs, inv_p, 1, k == 2, eps);
        claims c = {cursor, taken, t, INFINITY, 0, threads,
                    rows, ns, 0, out_best, NULL, NULL};
        rc = walk(&c, &m, k == 2);
    }
    free(rows);
    free(ns);
    return rc;
}
