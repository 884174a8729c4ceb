"""Bit-for-bit parity between the accelerated and python kernel backends.

An accelerated backend (numpy's wavefront, the compiled native kernels)
is only allowed to exist because it is *exactly* the python reference,
faster: every assertion here is ``==`` on floats, intervals, work
counters and whole result lists -- never ``isclose``.  The cases
deliberately cover the implementations' seams: strings shorter than the
scalar head, lengths straddling block boundaries, adversarial strings
that force bound updates deep into large blocks, and threshold scans
that truncate mid-block.  The ``find_*`` suites reach the kernels
through the public calls, which reject ``t``, ``min_length`` and ``n``
outside their range; a hypothesis test calls the raw ``scan_*``
contract directly at those edges.  Each test parametrizes over
``ACCEL_BACKENDS``; the native leg skips cleanly on compiler-less
hosts.
"""

from __future__ import annotations

import string

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from repro.analysis.calibration import mss_null_distribution
from repro.core.counts import PrefixCountIndex
from repro.core.minlength import find_mss_min_length
from repro.core.model import BernoulliModel
from repro.core.mss import find_mss
from repro.core.threshold import find_above_threshold
from repro.core.topt import find_top_t
from repro.generators import generate_null_string
from repro.kernels import get_backend
from tests.conftest import model_and_text
from tests.kernels.conftest import ACCEL_BACKENDS

ALPHABETS = {2: "ab", 4: "abcd", 26: "abcdefghijklmnopqrstuvwxyz"}

#: Lengths around the scalar head (64) and the first block boundaries,
#: plus sizes that exercise several doubling blocks.
LENGTHS = [1, 3, 63, 64, 65, 129, 300, 700]

#: Low thresholds approach the O(n²) regime, so the threshold matrix
#: stays a little shorter to keep the suite quick.
THRESHOLD_LENGTHS = [1, 3, 63, 65, 129, 300]


def _mss_fingerprint(result):
    return (
        result.best.chi_square,
        result.best.start,
        result.best.end,
        result.best.counts,
        result.stats.substrings_evaluated,
        result.stats.positions_skipped,
    )


def _list_fingerprint(result):
    return [
        (s.chi_square, s.start, s.end, s.counts) for s in result.substrings
    ]


def adversarial_strings(model, n, seed):
    alphabet = "".join(model.alphabet)
    planted = generate_null_string(model, n, seed=seed)
    middle = n // 2
    run = max(1, n // 10)
    planted = planted[:middle] + alphabet[0] * run + planted[middle + run:]
    return {
        "null": generate_null_string(model, n, seed=seed + 1),
        "one-symbol": alphabet[0] * n,
        "alternating": (alphabet * n)[:n],
        "planted": planted,
    }


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
@pytest.mark.parametrize("k", sorted(ALPHABETS))
@pytest.mark.parametrize("seed", [0, 1])
def test_mss_parity(accel, k, seed):
    model = BernoulliModel.uniform(ALPHABETS[k])
    for n in LENGTHS:
        for name, text in adversarial_strings(model, n, seed).items():
            expected = find_mss(text, model, backend="python")
            got = find_mss(text, model, backend=accel)
            assert _mss_fingerprint(got) == _mss_fingerprint(expected), (
                f"k={k} n={n} {name}"
            )


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
@pytest.mark.parametrize("k", sorted(ALPHABETS))
@pytest.mark.parametrize("t", [1, 5, 40])
def test_top_t_parity(accel, k, t):
    model = BernoulliModel.uniform(ALPHABETS[k])
    for n in LENGTHS:
        for name, text in adversarial_strings(model, n, k).items():
            expected = find_top_t(text, model, min(t, n), backend="python")
            got = find_top_t(text, model, min(t, n), backend=accel)
            assert _list_fingerprint(got) == _list_fingerprint(expected), (
                f"k={k} n={n} t={t} {name}"
            )
            assert (
                got.stats.substrings_evaluated,
                got.stats.positions_skipped,
            ) == (
                expected.stats.substrings_evaluated,
                expected.stats.positions_skipped,
            ), f"k={k} n={n} t={t} {name}"


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
@pytest.mark.parametrize("k", sorted(ALPHABETS))
@pytest.mark.parametrize("alpha0", [0.5, 4.0, 25.0])
def test_threshold_parity(accel, k, alpha0):
    model = BernoulliModel.uniform(ALPHABETS[k])
    for n in THRESHOLD_LENGTHS:
        for name, text in adversarial_strings(model, n, 2 * k).items():
            expected = find_above_threshold(
                text, model, alpha0, backend="python"
            )
            got = find_above_threshold(text, model, alpha0, backend=accel)
            assert _list_fingerprint(got) == _list_fingerprint(expected), (
                f"k={k} n={n} alpha0={alpha0} {name}"
            )
            assert (
                got.match_count,
                got.truncated,
                got.stats.substrings_evaluated,
                got.stats.positions_skipped,
            ) == (
                expected.match_count,
                expected.truncated,
                expected.stats.substrings_evaluated,
                expected.stats.positions_skipped,
            ), f"k={k} n={n} alpha0={alpha0} {name}"


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
@pytest.mark.parametrize("limit", [1, 7, 50, 300])
def test_threshold_truncation_parity(accel, limit):
    """The truncated prefix of matches -- and where the scan stopped --
    must agree exactly, not just the surviving multiset."""
    model = BernoulliModel.uniform("ab")
    for n in (63, 200, 500):
        text = generate_null_string(model, n, seed=limit)
        expected = find_above_threshold(
            text, model, 0.8, limit=limit, backend="python"
        )
        got = find_above_threshold(
            text, model, 0.8, limit=limit, backend=accel
        )
        assert _list_fingerprint(got) == _list_fingerprint(expected)
        assert (
            got.match_count,
            got.truncated,
            got.stats.substrings_evaluated,
            got.stats.positions_skipped,
        ) == (
            expected.match_count,
            expected.truncated,
            expected.stats.substrings_evaluated,
            expected.stats.positions_skipped,
        )


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
def test_threshold_count_only_parity(accel):
    model = BernoulliModel.uniform("abcd")
    text = generate_null_string(model, 400, seed=11)
    expected = find_above_threshold(
        text, model, 2.0, count_only=True, backend="python"
    )
    got = find_above_threshold(
        text, model, 2.0, count_only=True, backend=accel
    )
    assert got.match_count == expected.match_count
    assert list(got.substrings) == list(expected.substrings) == []
    assert (
        got.stats.substrings_evaluated,
        got.stats.positions_skipped,
    ) == (
        expected.stats.substrings_evaluated,
        expected.stats.positions_skipped,
    )


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
@pytest.mark.parametrize("k", sorted(ALPHABETS))
@pytest.mark.parametrize("min_length", [1, 2, 60, 120])
def test_min_length_parity(accel, k, min_length):
    model = BernoulliModel.uniform(ALPHABETS[k])
    for n in LENGTHS:
        if min_length > n:
            continue
        for name, text in adversarial_strings(model, n, 3 * k).items():
            expected = find_mss_min_length(
                text, model, min_length, backend="python"
            )
            got = find_mss_min_length(text, model, min_length, backend=accel)
            assert _mss_fingerprint(got) == _mss_fingerprint(expected), (
                f"k={k} n={n} min_length={min_length} {name}"
            )


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
@pytest.mark.parametrize("k", sorted(ALPHABETS))
def test_calibration_sample_parity(accel, k):
    """Both backends must consume the RNG stream identically and produce
    bit-identical X²max samples -- p-values downstream depend on it."""
    model = BernoulliModel.uniform(ALPHABETS[k])
    for n in (40, 200):
        expected = mss_null_distribution(
            model, n, trials=12, seed=7, backend="python"
        )
        got = mss_null_distribution(model, n, trials=12, seed=7, backend=accel)
        assert got.samples == expected.samples


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
def test_calibration_chunking_is_invisible(accel, monkeypatch):
    """Trial chunking is a memory knob, not a semantics knob.

    Both accelerated backends run through the shared chunked driver in
    ``numpy_backend``, so one monkeypatched chunk size covers both.
    """
    import repro.kernels.numpy_backend as numpy_backend

    model = BernoulliModel.uniform("ab")
    reference = mss_null_distribution(
        model, 150, trials=10, seed=5, backend=accel
    )
    monkeypatch.setattr(numpy_backend, "_CALIB_CHUNK_ELEMS", 151 * 2 * 3)
    chunked = mss_null_distribution(
        model, 150, trials=10, seed=5, backend=accel
    )
    assert chunked.samples == reference.samples


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
def test_skewed_model_parity(accel):
    """Non-uniform probabilities exercise different per-character roots."""
    model = BernoulliModel("abc", [0.6, 0.3, 0.1])
    for n in (63, 300, 700):
        text = generate_null_string(model, n, seed=n)
        expected = find_mss(text, model, backend="python")
        got = find_mss(text, model, backend=accel)
        assert _mss_fingerprint(got) == _mss_fingerprint(expected)


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
@hypothesis.given(model_and_text(max_length=220))
@hypothesis.settings(max_examples=40, deadline=None)
def test_mss_parity_property(accel, model_text):
    model, text = model_text
    if not text:
        return
    expected = find_mss(text, model, backend="python")
    got = find_mss(text, model, backend=accel)
    assert _mss_fingerprint(got) == _mss_fingerprint(expected)


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
@hypothesis.given(model_and_text(max_length=220), st.integers(1, 12))
@hypothesis.settings(max_examples=25, deadline=None)
def test_top_t_parity_property(accel, model_text, t):
    model, text = model_text
    if not text:
        return
    t = min(t, len(text))
    expected = find_top_t(text, model, t, backend="python")
    got = find_top_t(text, model, t, backend=accel)
    assert _list_fingerprint(got) == _list_fingerprint(expected)
    assert got.stats.substrings_evaluated == expected.stats.substrings_evaluated
    assert got.stats.positions_skipped == expected.stats.positions_skipped


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
def test_threshold_kernel_tolerates_degenerate_limit(accel):
    """Kernel-boundary contract: backends agree even on limit=0, which
    find_above_threshold's validation normally rejects."""
    from repro.core.counts import PrefixCountIndex
    from repro.kernels import get_backend

    model = BernoulliModel.uniform("ab")
    text = generate_null_string(model, 300, seed=21)
    index = PrefixCountIndex(model.encode(text), model.k)
    for alpha0 in (1e9, 0.5):
        results = [
            get_backend(name).scan_threshold(index, model, alpha0, limit=0)
            for name in ("python", accel)
        ]
        assert results[0] == results[1]


@st.composite
def edge_documents(draw):
    """A model at k = 2..26 (uniform or skewed) and a null, one-symbol or
    periodic document of 0 to 2k + 70 symbols, across the 64-row scalar
    head."""
    k = draw(st.integers(2, 26))
    weights = draw(st.one_of(
        st.just([1.0] * k),
        st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k),
    ))
    total = sum(weights)
    model = BernoulliModel(string.ascii_lowercase[:k],
                           [w / total for w in weights])
    n = draw(st.integers(0, 2 * k + 70))
    shape = draw(st.sampled_from(["null", "one-symbol", "periodic"]))
    if shape == "null":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        codes = rng.choice(k, size=n, p=model.probabilities)
    else:
        unit = draw(st.lists(st.integers(0, k - 1), min_size=1,
                             max_size=1 if shape == "one-symbol" else 6))
        codes = (unit * n)[:n]
    return model, PrefixCountIndex(codes, k)


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
@hypothesis.given(edge_documents(), st.data())
def test_raw_scans_at_their_edges(accel, document, data):
    """The raw single-document ``scan_*`` contract, called directly:
    empty and short documents, ``t`` of 1, of n(n+1)/2 and past it,
    ``min_length`` at and past n, and threshold limits of ``None``, 0, 1
    and about the match count, with and without ``count_only``."""
    model, index = document
    n = index.n
    python = get_backend("python")
    backend = get_backend(accel)

    def same(scan, *args):
        expected = getattr(python, scan)(index, model, *args)
        got = getattr(backend, scan)(index, model, *args)
        assert got == expected, (scan, args)
        return expected

    same("scan_mss")
    past = n + data.draw(st.integers(1, 5))
    for min_length in sorted({1, max(n, 1), past}):
        same("scan_mss_min_length", min_length)
    pairs = n * (n + 1) // 2
    for t in sorted({1, max(pairs, 1), pairs + data.draw(st.integers(1, 5))}):
        same("scan_top_t", t)
    alpha0 = data.draw(st.floats(0.0, 3.0)) * (model.k - 1)
    matches = same("scan_threshold", alpha0, None, True)[1]
    for limit in [None, 0, 1, max(matches - 1, 1), matches, matches + 1]:
        for count_only in (False, True):
            same("scan_threshold", alpha0, limit, count_only)
