"""Differential fuzz of the native lane walker.

Native ``mine_batch`` runs mss and minlength on C lanes -- four scans in
flight per call, each lane claiming the next document from a cursor
that every calling thread shares -- and native calibration runs its
trials the same way.  Every assertion is ``==`` on raw tuples (X²,
interval, evaluated, skipped) or samples against the python reference
and numpy, over:

* alphabets k = 2..26 with uniform, skewed and near-zero probabilities;
* ragged corpora with empty and length-1 documents, ``min_length`` past
  a document's end, fewer documents than lanes and many more;
* 1, 2 and 4 threads sharing one cursor, where every document must be
  claimed exactly once;
* calibration samples at 1 and 2 threads, k = 2 and 4, against numpy.

The claim cursor's own rule (each slot once, nothing past the deadline)
is checked directly as well.

Tier-1 runs the conftest profile's example budget; CI's test job runs
this module again under ``--hypothesis-profile=repro-fuzz``.
"""

from __future__ import annotations

import string
import time

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from repro.core.counts import PrefixCountIndex
from repro.core.model import BernoulliModel
from repro.engine import Deadline, JobSpec, ThreadExecutor
from repro.kernels import get_backend
from repro.kernels.native_backend import ClaimCursor
from repro.kernels.python_backend import PythonBackend

from tests.kernels.conftest import _native_ready

pytestmark = pytest.mark.skipif(
    not _native_ready(),
    reason="native backend unavailable (no C compiler or cached "
           "artifact); it resolves to numpy, which the parity suites cover",
)

REFERENCE = PythonBackend()


@pytest.fixture(scope="module")
def pools():
    """One persistent executor per thread count."""
    executors = {threads: ThreadExecutor(threads) for threads in (1, 2, 4)}
    yield executors
    for executor in executors.values():
        executor.close()


@st.composite
def models(draw, ks=st.integers(2, 26)):
    """A model with uniform, skewed or near-zero probabilities."""
    k = draw(ks)
    shape = draw(st.sampled_from(["uniform", "skewed", "near-zero"]))
    if shape == "uniform":
        weights = [1.0] * k
    else:
        weights = draw(
            st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)
        )
        if shape == "near-zero":
            rare = draw(st.sets(st.integers(0, k - 1), min_size=1,
                                max_size=k - 1))
            for j in rare:
                weights[j] = draw(st.floats(1e-6, 1e-3))
    total = sum(weights)
    return BernoulliModel(string.ascii_lowercase[:k],
                          [w / total for w in weights])


@st.composite
def corpora(draw, model):
    """Ragged documents drawn from ``model``, some with a planted run:
    up to three (fewer than the lanes) or up to 24 short ones."""
    lengths = draw(st.one_of(
        st.lists(st.integers(0, 90), min_size=1, max_size=3),
        st.lists(st.integers(0, 30), min_size=5, max_size=24),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indexes = []
    for n in lengths:
        codes = rng.choice(model.k, size=n, p=model.probabilities)
        if n > 4 and draw(st.booleans()):
            start = draw(st.integers(0, n - 4))
            codes[start:start + draw(st.integers(2, 12))] = draw(
                st.integers(0, model.k - 1)
            )
        indexes.append(PrefixCountIndex(codes, model.k))
    return indexes


def _shared_mine(indexes, model, spec, threads, pools):
    """Native ``mine_batch`` on ``threads`` threads sharing one cursor;
    each document must come back from exactly one call."""
    native = get_backend("native")
    if threads == 1:
        return native.mine_batch(indexes, model, spec)
    cursor = ClaimCursor()
    parts = pools[threads].map(
        lambda _: native.mine_batch(indexes, model, spec, cursor=cursor),
        range(threads),
    )
    merged = []
    for doc in range(len(indexes)):
        claimed = [part[doc] for part in parts if part[doc] is not None]
        assert len(claimed) == 1, (doc, len(claimed))
        merged.append(claimed[0])
    return merged


def test_claim_cursor_hands_out_each_slot_once():
    cursor = ClaimCursor()
    assert [cursor.claim(2) for _ in range(3)] == [0, 1, None]


def test_claim_cursor_claims_nothing_past_its_deadline():
    assert ClaimCursor(Deadline(time.monotonic() - 1.0)).claim(5) is None
    assert ClaimCursor(Deadline(time.monotonic() + 60.0)).claim(5) == 0


@given(data=st.data(), threads=st.sampled_from([1, 2, 4]))
def test_mss_lanes_match_reference(data, threads, pools):
    model = data.draw(models())
    indexes = data.draw(corpora(model))
    spec = JobSpec()
    got = _shared_mine(indexes, model, spec, threads, pools)
    assert got == REFERENCE.mine_batch(indexes, model, spec)
    assert got == get_backend("numpy").mine_batch(indexes, model, spec)


@given(data=st.data(), threads=st.sampled_from([1, 2, 4]))
def test_minlength_lanes_match_reference(data, threads, pools):
    model = data.draw(models())
    indexes = data.draw(corpora(model))
    longest = max(index.n for index in indexes)
    spec = JobSpec(
        problem="minlength",
        min_length=data.draw(st.integers(1, longest + 3)),
    )
    got = _shared_mine(indexes, model, spec, threads, pools)
    assert got == REFERENCE.mine_batch(indexes, model, spec)
    assert got == get_backend("numpy").mine_batch(indexes, model, spec)


@given(
    model=models(ks=st.sampled_from([2, 4])),
    n=st.integers(1, 160),
    trials=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    threads=st.sampled_from([1, 2]),
)
def test_calibration_lanes_match_numpy(model, n, trials, seed, threads,
                                       pools):
    assert pools[threads].threads("native") == threads
    got = get_backend("native").simulate_x2max(
        model, n, trials, seed, executor=pools[threads]
    )
    assert got == get_backend("numpy").simulate_x2max(model, n, trials, seed)
