"""Differential fuzz of the native lane walker.

Native ``mine_batch`` runs mss and minlength on C lanes -- scans in
flight per call, each lane claiming the next document from a cursor
that every calling thread shares and building its prefix matrix from
the document's codes -- and native calibration runs its trials the same
way.  On an AVX2 CPU the lanes advance four per vector instruction (two
groups of four per call, compacted into one at four live scans, the
last two scans on the scalar lanes); k above the vector step's cap
takes the scalar lanes.  Every assertion is ``==`` on raw tuples (X²,
interval, evaluated, skipped) or samples against the python reference
and numpy, over:

* alphabets k = 2..26 with uniform, skewed and near-zero probabilities,
  and k on both sides of the vector cap (31..34);
* ragged corpora with empty and length-1 documents, ``min_length`` past
  a document's end, fewer documents than lanes and up to 40 -- more
  than the lanes times the threads;
* 1, 2 and 4 threads sharing one cursor, where every document must be
  claimed exactly once, including a cursor shared by more calls than
  its ``threads`` (extra seats skip the stripe) and by fewer (their
  striped slots must not be stranded);
* 5-16 documents of 60-400 symbols, so both vector groups stay live
  for many steps and compact mid-run, mined by calls that start
  together or one after another: a seat that arrives late leaves its
  striped documents to the first call, whose lanes then claim
  documents longer than their first and must grow their buffers;
* calibration samples at 1 and 2 threads, k = 2, 3, 4 and 26, at 1-17
  trials: around the eight-lane groups, their compaction into one and
  the hand-off to the scalar lanes at two.

The claim cursor's own rule (each slot once, nothing past the deadline,
no library lookups once a backend holds the library) is checked
directly as well.

Tier-1 runs the conftest profile's example budget; CI's test job runs
this module again under ``--hypothesis-profile=repro-fuzz``.
"""

from __future__ import annotations

import string
import threading
import time

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from repro.core.counts import PrefixCountIndex
from repro.core.model import BernoulliModel
from repro.engine import Deadline, JobSpec, ThreadExecutor
import repro.kernels.native_backend as native_backend
from repro.kernels import get_backend
from repro.kernels.native_backend import ClaimCursor
from repro.kernels.numpy_backend import _x2max_chunk
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
    return BernoulliModel(string.ascii_letters[:k],
                          [w / total for w in weights])


@st.composite
def corpora(draw, model, lengths=None):
    """Ragged documents drawn from ``model``, some with a planted run,
    with lengths drawn from ``lengths``: by default up to three (fewer
    than the lanes) or up to 24 short ones."""
    lengths = draw(lengths if lengths is not None else st.one_of(
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


def _shared_mine(indexes, model, spec, threads, pools, seats=1):
    """Native ``mine_batch`` on ``threads`` threads sharing one cursor
    announced for ``seats`` calls; each document must come back from
    exactly one call."""
    native = get_backend("native")
    if threads == 1 and seats == 1:
        return native.mine_batch(indexes, model, spec)
    cursor = ClaimCursor(threads=seats)
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


def _late_seats_mine(indexes, model, spec, seats):
    """Native ``mine_batch`` by ``seats`` calls on one thread, one after
    another, sharing a cursor announced for all of them: the first call
    claims every document, its striped ones first, then the later
    seats' (longer than most of its own) from the cursor."""
    native = get_backend("native")
    cursor = ClaimCursor(threads=seats)
    first, *rest = [
        native.mine_batch(indexes, model, spec, cursor=cursor)
        for _ in range(seats)
    ]
    assert all(raw is None for part in rest for raw in part)
    return first


def test_claim_cursor_hands_out_each_slot_once():
    cursor = ClaimCursor()
    assert [cursor.claim(2) for _ in range(3)] == [0, 1, None]


def test_claim_cursor_claims_nothing_past_its_deadline():
    assert ClaimCursor(Deadline(time.monotonic() - 1.0)).claim(5) is None
    assert ClaimCursor(Deadline(time.monotonic() + 60.0)).claim(5) == 0


def test_claim_cursor_serves_one_run_size():
    cursor = ClaimCursor(threads=2)
    assert cursor.claim(3) == 0
    with pytest.raises(ValueError):
        cursor.claim(4)


def test_claims_use_the_backends_library(monkeypatch, pools):
    """Once the backend holds the library, a claim resolves no paths:
    top-t documents each take a claim of their own."""
    native = get_backend("native")
    assert native.resolved_name == "native"

    def no_lookup():
        raise AssertionError("claim resolved the artifact path")

    monkeypatch.setattr(native_backend, "_artifact_path", no_lookup)
    model = BernoulliModel("abcd", [0.4, 0.3, 0.2, 0.1])
    rng = np.random.default_rng(5)
    indexes = [
        PrefixCountIndex(rng.integers(0, 4, size=n), 4)
        for n in rng.integers(0, 60, size=40)
    ]
    spec = JobSpec(problem="top", t=3)
    got = _shared_mine(indexes, model, spec, 2, pools, seats=2)
    assert got == REFERENCE.mine_batch(indexes, model, spec)


@given(
    data=st.data(),
    threads=st.sampled_from([1, 2, 4]),
    seats=st.integers(1, 5),
    problem=st.sampled_from(["mss", "minlength"]),
)
def test_many_documents_are_each_claimed_once(data, threads, seats,
                                               problem, pools):
    """Up to 40 documents, more than the lanes of every thread, on a
    cursor announced for more calls than come, as many, or fewer."""
    model = data.draw(models(ks=st.sampled_from([2, 3, 4, 7])))
    indexes = data.draw(corpora(
        model, st.lists(st.integers(0, 40), min_size=1, max_size=40)
    ))
    spec = (
        JobSpec() if problem == "mss"
        else JobSpec(problem="minlength",
                     min_length=data.draw(st.integers(1, 12)))
    )
    got = _shared_mine(indexes, model, spec, threads, pools, seats=seats)
    assert got == REFERENCE.mine_batch(indexes, model, spec)
    assert got == get_backend("numpy").mine_batch(indexes, model, spec)


@given(
    data=st.data(),
    calls=st.sampled_from(["together", "late"]),
    threads=st.sampled_from([1, 2, 4]),
    problem=st.sampled_from(["mss", "minlength"]),
)
def test_both_groups_compact_mid_run(data, calls, threads, problem, pools):
    """Longer documents than the other strategies, ragged enough that a
    lane's later claim can outgrow its first."""
    model = data.draw(models(ks=st.sampled_from([2, 3, 4, 7])))
    indexes = data.draw(corpora(
        model, st.lists(st.integers(60, 400), min_size=5, max_size=16)
    ))
    spec = (
        JobSpec() if problem == "mss"
        else JobSpec(problem="minlength",
                     min_length=data.draw(st.integers(1, 80)))
    )
    if calls == "late":
        got = _late_seats_mine(indexes, model, spec, max(threads, 2))
    else:
        got = _shared_mine(indexes, model, spec, threads, pools,
                           seats=threads)
    assert got == REFERENCE.mine_batch(indexes, model, spec)


@given(data=st.data(), k=st.integers(31, 34),
       threads=st.sampled_from([1, 2]))
def test_lanes_on_both_sides_of_the_vector_cap(data, k, threads, pools):
    model = data.draw(models(ks=st.just(k)))
    indexes = data.draw(corpora(
        model, st.lists(st.integers(0, 40), min_size=2, max_size=10)
    ))
    for spec in (JobSpec(), JobSpec(problem="minlength", min_length=3)):
        got = _shared_mine(indexes, model, spec, threads, pools)
        assert got == REFERENCE.mine_batch(indexes, model, spec)
    trials = data.draw(st.integers(1, 10))
    n = data.draw(st.integers(1, 60))
    assert get_backend("native").simulate_x2max(
        model, n, trials, 3, executor=pools[threads]
    ) == get_backend("numpy").simulate_x2max(model, n, trials, 3)


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


@given(
    model=models(ks=st.sampled_from([2, 3, 4, 26])),
    n=st.integers(1, 120),
    trials=st.integers(1, 17),
    seed=st.integers(0, 2**32 - 1),
    threads=st.sampled_from([1, 2]),
)
def test_calibration_around_the_trial_groups(model, n, trials, seed,
                                             threads, pools):
    """1-17 trials: one or two eight-lane groups, their compaction into
    one group at four live trials and the scalar hand-off at two."""
    got = get_backend("native").simulate_x2max(
        model, n, trials, seed, executor=pools[threads]
    )
    assert got == get_backend("numpy").simulate_x2max(model, n, trials, seed)


@given(
    model=models(ks=st.sampled_from([2, 4])),
    n=st.integers(1, 80),
    trials=st.integers(1, 17),
    calls=st.sampled_from([1, 2, 4]),
    seats=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_calibration_cursor_shared_by_more_or_fewer_calls(
    model, n, trials, calls, seats, seed, pools
):
    rng = np.random.default_rng(seed)
    sub = rng.choice(model.k, size=(trials, n), p=model.probabilities)
    cursor = ClaimCursor(threads=seats)
    out = np.full(trials, np.nan)
    barrier = threading.Barrier(calls)

    def lanes(_):
        barrier.wait(timeout=60)
        native_backend._native_x2max_chunk(
            sub, n, model.k, model.probabilities, cursor, out
        )

    pools[4].map(lanes, range(calls))
    assert out.tolist() == _x2max_chunk(sub, n, model.k, model.probabilities)
    assert cursor.taken.all()
