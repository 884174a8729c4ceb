"""Parity of the auxiliary routed kernels and the calibration pool.

PR 3 routed the remaining numeric hot spots -- the baselines' pair
scans, the vectorised trivial scan, the heap strategy's seeding, and the
skip profiler -- through the backend registry; these tests hold them to
the same bit-for-bit standard as the scanners, and pin the multi-process
calibration fan-out to the serial samples.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.calibration import mss_null_distribution
from repro.analysis.skipprofile import profile_skips
from repro.baselines.blocked import find_mss_blocked
from repro.baselines.heap_strategy import find_mss_heap
from repro.baselines.trivial import find_mss_trivial, find_mss_trivial_numpy
from repro.core.counts import PrefixCountIndex
from repro.core.model import BernoulliModel
from repro.generators import generate_null_string
from repro.kernels import get_backend
from tests.kernels.conftest import ACCEL_BACKENDS

ALPHABETS = {2: "ab", 4: "abcd", 26: "abcdefghijklmnopqrstuvwxyz"}


def _index_for(model, n, seed):
    text = generate_null_string(model, n, seed=seed)
    return PrefixCountIndex(model.encode(text), model.k)


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
@pytest.mark.parametrize("k", sorted(ALPHABETS))
def test_best_over_pairs_parity(accel, k):
    model = BernoulliModel.uniform(ALPHABETS[k])
    index = _index_for(model, 240, seed=k)
    matrix = index.counts_matrix()
    inv_p = np.asarray([1.0 / p for p in model.probabilities])
    positions = np.array([0, 3, 10, 50, 120, 240, 10])  # duplicate on purpose
    expected = get_backend("python").best_over_pairs(
        matrix, inv_p, positions, positions
    )
    got = get_backend(accel).best_over_pairs(
        matrix, inv_p, positions, positions
    )
    assert got == expected
    # 7 candidates dedupe to 6 -> 15 ordered pairs with start < end
    assert got[2] == 15


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
def test_best_over_pairs_no_valid_pair(accel):
    model = BernoulliModel.uniform("ab")
    index = _index_for(model, 50, seed=1)
    inv_p = np.asarray([2.0, 2.0])
    for name in ("python", accel):
        best, _, evaluated = get_backend(name).best_over_pairs(
            index.counts_matrix(), inv_p, [30], [10]
        )
        assert best == -np.inf
        assert evaluated == 0


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
@pytest.mark.parametrize("k", sorted(ALPHABETS))
def test_score_spans_parity(accel, k):
    model = BernoulliModel.uniform(ALPHABETS[k])
    index = _index_for(model, 180, seed=3 * k)
    starts = np.arange(0, 170, 7)
    ends = np.minimum(starts + np.arange(1, len(starts) + 1), 180)
    python = get_backend("python").score_spans(index, model, starts, ends)
    accelerated = get_backend(accel).score_spans(index, model, starts, ends)
    assert python == accelerated
    assert all(isinstance(value, float) for value in accelerated)


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
@pytest.mark.parametrize("k", sorted(ALPHABETS))
def test_scan_mss_exhaustive_parity(accel, k):
    model = BernoulliModel.uniform(ALPHABETS[k])
    for n in (1, 40, 130):
        index = _index_for(model, n, seed=n + k)
        expected = get_backend("python").scan_mss_exhaustive(index, model)
        got = get_backend(accel).scan_mss_exhaustive(index, model)
        assert got == expected
        assert got[2] == n * (n + 1) // 2


def test_trivial_numpy_routes_and_matches_oracle():
    """The routed exhaustive kernel must equal the pure-Python oracle
    bit for bit -- including for k > 8, where naive axis summation would
    change the accumulation order."""
    model = BernoulliModel.uniform(ALPHABETS[26])
    text = generate_null_string(model, 150, seed=9)
    oracle = find_mss_trivial(text, model)
    # "native" is unconditional: it routes this kernel to numpy whether or
    # not the compiled library is available.
    for backend in ("python", "numpy", "native", None):
        routed = find_mss_trivial_numpy(text, model, backend=backend)
        assert routed.best.chi_square == oracle.best.chi_square
        assert (routed.best.start, routed.best.end) == (
            oracle.best.start, oracle.best.end,
        )
        assert (
            routed.stats.substrings_evaluated
            == oracle.stats.substrings_evaluated
        )


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
@pytest.mark.parametrize("k", [2, 4])
def test_scan_mss_skips_parity_and_scan_agreement(accel, k):
    model = BernoulliModel.uniform(ALPHABETS[k])
    index = _index_for(model, 300, seed=k)
    python = get_backend("python").scan_mss_skips(index, model)
    accelerated = get_backend(accel).scan_mss_skips(index, model)
    assert python == accelerated
    # the instrumented walk visits exactly the production scan's set
    # (x2max is only approx for k = 2, where the scan's binary fast path
    # evaluates the same formula in a different operation order)
    best, _, evaluated, skipped = get_backend("python").scan_mss(index, model)
    records, x2max, prof_evaluated, prof_skipped = python
    assert (prof_evaluated, prof_skipped) == (evaluated, skipped)
    assert x2max == pytest.approx(best)
    assert len(records) == evaluated


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
def test_profile_skips_backend_independent(accel):
    model = BernoulliModel.uniform("ab")
    text = generate_null_string(model, 250, seed=2)
    profiles = [
        profile_skips(text, model, backend=name)
        for name in ("python", accel)
    ]
    assert profiles[0].records == profiles[1].records
    assert profiles[0].x2max == profiles[1].x2max


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
def test_blocked_and_heap_backend_independent(accel):
    model = BernoulliModel.uniform("ab")
    text = generate_null_string(model, 220, seed=4)
    for finder in (find_mss_blocked, find_mss_heap):
        results = [finder(text, model, backend=name)
                   for name in ("python", accel)]
        assert results[0].best.chi_square == results[1].best.chi_square
        assert (results[0].best.start, results[0].best.end) == (
            results[1].best.start, results[1].best.end,
        )
        assert (
            results[0].stats.substrings_evaluated
            == results[1].stats.substrings_evaluated
        )


class TestCalibrationChunks:
    """The chunk size bounds memory only; samples never depend on it."""

    @pytest.mark.parametrize("accel", ACCEL_BACKENDS)
    def test_chunked_draws_bit_identical(self, accel, monkeypatch):
        import repro.kernels.numpy_backend as numpy_backend

        model = BernoulliModel.uniform("ab")
        reference = mss_null_distribution(
            model, 150, trials=12, seed=5, backend=accel
        )
        # Force several chunks (both accelerated backends share the
        # chunked driver, so one monkeypatched chunk size covers both).
        monkeypatch.setattr(numpy_backend, "_CALIB_CHUNK_ELEMS", 151 * 2 * 3)
        chunked = mss_null_distribution(
            model, 150, trials=12, seed=5, backend=accel
        )
        assert chunked.samples == reference.samples
