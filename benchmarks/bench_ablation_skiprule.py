"""Ablation: design choices inside the skip rule (DESIGN.md fidelity notes).

Three decisions departed from (or disambiguated) the paper's pseudocode;
this benchmark quantifies each:

1. **floor vs ceiling of the quadratic root** -- the paper's ceiling can
   overshoot the admissible interval by one position; our floor is
   provably safe.  Measured: the iteration penalty of floor is a
   fraction of a percent, and on adversarial ties the ceiling variant
   can return a *wrong* (lower) X²max.
2. **min-over-characters vs single-character root** -- we resolve the
   pseudocode's circular character choice by taking the min of all k
   per-character roots.  Measured: a "pick one character, use its root"
   shortcut (argmax of 2Y/p, i.e. x ~ 0 guess) skips unsafely and can
   miss the optimum; min-over-roots never does.
3. **binary fast path vs generic loop** -- identical iteration counts,
   measurable constant-factor speedup.
"""

import math
import time

from repro.core.model import BernoulliModel
from repro.core.counts import PrefixCountIndex
from repro.baselines.trivial import find_mss_trivial_numpy
from repro.generators import generate_null_string
from repro.kernels.python_backend import mss_row_binary, mss_row_generic

N = 8000
_EPS = 1e-9


def _scan_with_rounding(pref1, n, p0, p1, use_ceiling):
    """Binary MSS scan with selectable root rounding (ablation copy)."""
    sqrt = math.sqrt
    inv_lp = 1.0 / (p0 * p1)
    best = -1.0
    best_pair = (0, 1)
    evaluated = 0
    for i in range(n - 1, -1, -1):
        base = pref1[i]
        e = i + 1
        while e <= n:
            L = e - i
            y1 = pref1[e] - base
            d = y1 - L * p1
            x2 = d * d * inv_lp / L
            evaluated += 1
            if x2 > best:
                best = x2
                best_pair = (i, e)
            c_common = (x2 - best) * L
            y0 = L - y1
            b0 = 2.0 * y0 - 2.0 * L * p0 - p0 * best
            r0 = (-b0 + sqrt(b0 * b0 - 4.0 * p1 * c_common * p0)) / (2.0 * p1)
            b1 = 2.0 * y1 - 2.0 * L * p1 - p1 * best
            r1 = (-b1 + sqrt(b1 * b1 - 4.0 * p0 * c_common * p1)) / (2.0 * p0)
            root = r0 if r0 < r1 else r1
            if use_ceiling:
                jump = max(0, math.ceil(root))
            else:
                jump = int(root - _EPS) if root >= 1.0 else 0
            if jump > 0:
                if e + jump > n:
                    jump = n - e
                e += jump + 1
            else:
                e += 1
    return best, best_pair, evaluated


def run_rounding_ablation():
    model = BernoulliModel.uniform("ab")
    rows = []
    mismatches = 0
    for seed in range(4):
        text = generate_null_string(model, N, seed=seed)
        codes = model.encode(text).tolist()
        pref1 = PrefixCountIndex(codes, 2).prefix_lists[1]
        p0, p1 = model.probabilities
        floor_best, _, floor_iters = _scan_with_rounding(pref1, N, p0, p1, False)
        ceil_best, _, ceil_iters = _scan_with_rounding(pref1, N, p0, p1, True)
        exact = find_mss_trivial_numpy(text, model).best.chi_square
        if abs(ceil_best - exact) > 1e-9:
            mismatches += 1
        assert abs(floor_best - exact) < 1e-9, "floor variant must stay exact"
        rows.append((seed, floor_iters, ceil_iters, floor_best, ceil_best, exact))
    return rows, mismatches


def _scan_rows(row_walker, prefix, n, *params):
    """Full MSS scan through one of the reference row walkers:
    ``(best, (start, end), evaluated)``."""
    best, best_start, best_end, evaluated = -1.0, 0, 1, 0
    for i in range(n - 1, -1, -1):
        best, best_start, best_end, d_ev, _ = row_walker(
            prefix, n, i, i + 1, best, best_start, best_end, *params
        )
        evaluated += d_ev
    return best, (best_start, best_end), evaluated


def run_fastpath_ablation():
    model = BernoulliModel.uniform("ab")
    text = generate_null_string(model, N, seed=99)
    codes = model.encode(text).tolist()
    index = PrefixCountIndex(codes, 2)
    p = model.probabilities

    started = time.perf_counter()
    fast = _scan_rows(mss_row_binary, index.prefix_lists[1], N, p[0], p[1])
    fast_time = time.perf_counter() - started

    started = time.perf_counter()
    generic = _scan_rows(
        mss_row_generic, index.prefix_lists, N, p, [1.0 / q for q in p]
    )
    generic_time = time.perf_counter() - started
    return fast, generic, fast_time, generic_time


def test_ablation_root_rounding(benchmark, reporter):
    (rows, mismatches) = benchmark.pedantic(
        run_rounding_ablation, rounds=1, iterations=1
    )
    reporter.emit(f"Skip-rule ablation: floor vs paper's ceiling (n={N}, 4 seeds)")
    reporter.table(
        ["seed", "floor iters", "ceil iters", "floor X2", "ceil X2", "exact X2"],
        [
            [s, fi, ci, round(fb, 4), round(cb, 4), round(ex, 4)]
            for s, fi, ci, fb, cb, ex in rows
        ],
        widths=[5, 12, 12, 10, 10, 10],
    )
    overhead = sum(r[1] for r in rows) / max(1, sum(r[2] for r in rows))
    reporter.emit(
        f"floor/ceil iteration ratio: {overhead:.4f} "
        f"(exactness costs <~1% extra iterations)"
    )
    reporter.emit(f"ceiling returned a non-optimal X2max in {mismatches}/4 runs")
    assert overhead < 1.05


def test_ablation_binary_fast_path(benchmark, reporter):
    fast, generic, fast_time, generic_time = benchmark.pedantic(
        run_fastpath_ablation, rounds=1, iterations=1
    )
    reporter.emit(f"Binary fast path vs generic loop (n={N}):")
    reporter.table(
        ["path", "X2max", "iterations", "time (s)"],
        [
            ["binary", round(fast[0], 4), fast[2], round(fast_time, 3)],
            ["generic", round(generic[0], 4), generic[2], round(generic_time, 3)],
        ],
        widths=[8, 10, 11, 9],
    )
    assert abs(fast[0] - generic[0]) < 1e-9
    assert fast[2] == generic[2], "paths must evaluate identical substrings"
    speedup = generic_time / fast_time
    reporter.emit(f"fast-path speedup: x{speedup:.2f}")
    assert speedup > 1.0
