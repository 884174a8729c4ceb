"""Parity of ``mine_batch`` against the per-document loop.

The batched corpus path is only allowed to exist because it is *exactly*
the per-document loop, faster: every assertion here is ``==`` on raw
scan tuples -- scores, intervals, found lists, evaluated/skipped
counters -- for ragged corpora that deliberately include empty and
length-1 documents, lengths straddling the scalar head and block
boundaries, and documents with planted bursts that force bound updates
(and hence per-document replays) deep inside shared blocks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.counts import PrefixCountIndex
from repro.core.model import BernoulliModel
from repro.engine.jobs import JobSpec
from repro.generators import generate_null_string
from repro.kernels import get_backend
from repro.kernels.python_backend import mine_reference
from tests.kernels.conftest import ACCEL_BACKENDS

ALPHABETS = {2: "ab", 4: "abcd"}

#: Ragged lengths: empty, singletons, the scalar head boundary (64),
#: block boundaries, and sizes spanning several doubling blocks.
RAGGED_LENGTHS = [0, 1, 3, 63, 64, 65, 2, 129, 300, 1, 700, 0, 97]

SPECS = [
    JobSpec(),
    JobSpec(problem="minlength", min_length=5),
    JobSpec(problem="minlength", min_length=200),
    JobSpec(problem="top", t=1),
    JobSpec(problem="top", t=9),
    JobSpec(problem="threshold", threshold=4.0),
    # limit exercises per-document truncation *inside* the shared
    # wavefront: immediately (limit=1, threshold=0), within the scalar
    # head rows, deep inside the doubling blocks, and never (huge limit).
    JobSpec(problem="threshold", threshold=1.0, limit=7),
    JobSpec(problem="threshold", threshold=0.0, limit=1),
    JobSpec(problem="threshold", threshold=0.5, limit=3),
    JobSpec(problem="threshold", threshold=1.0, limit=40),
    JobSpec(problem="threshold", threshold=2.0, limit=100000),
]


def ragged_corpus(model, seed):
    """Ragged documents, one with a planted burst forcing deep replays."""
    alphabet = "".join(model.alphabet)
    texts = []
    for position, n in enumerate(RAGGED_LENGTHS):
        text = "" if n == 0 else generate_null_string(
            model, n, seed=seed + position
        )
        texts.append(text)
    burst = texts[10]
    texts[10] = burst[:300] + alphabet[0] * 60 + burst[360:]
    return [PrefixCountIndex(model.encode(text), model.k) for text in texts]


def _comparable(spec, raw):
    """Raw tuple with the top-t heap replaced by its sorted contents
    (heap layout is an implementation detail; the multiset and every
    counter are not)."""
    if spec.problem == "top":
        heap, evaluated, skipped = raw
        return sorted(heap), evaluated, skipped
    return raw


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
@pytest.mark.parametrize("k", sorted(ALPHABETS))
@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_mine_batch_matches_per_document_loop(accel, k, spec):
    model = BernoulliModel.uniform(ALPHABETS[k])
    indexes = ragged_corpus(model, seed=17 * k)
    python = get_backend("python")
    expected = [
        _comparable(spec, mine_reference(python, index, model, spec))
        for index in indexes
    ]
    for backend in (python, get_backend(accel)):
        got = backend.mine_batch(indexes, model, spec)
        assert [_comparable(spec, raw) for raw in got] == expected, (
            f"k={k} backend={backend.name} {spec}"
        )


def test_mine_batch_preserves_document_order():
    model = BernoulliModel.uniform("ab")
    texts = ["ab" * 40, "a" * 30, "ba" * 25]
    indexes = [PrefixCountIndex(model.encode(t), model.k) for t in texts]
    raws = get_backend("numpy").mine_batch(indexes, model, JobSpec())
    # doc 1 is pure 'a': its best substring is the whole document
    assert raws[1][1] == (0, 30)
    assert raws[0][1] != (0, 30)


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
def test_mine_batch_single_document_equals_scan(accel):
    model = BernoulliModel.uniform("abcd")
    text = generate_null_string(model, 500, seed=5)
    index = PrefixCountIndex(model.encode(text), model.k)
    for name in ("python", accel):
        backend = get_backend(name)
        assert backend.mine_batch([index], model, JobSpec()) == [
            backend.scan_mss(index, model)
        ]


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
def test_mine_batch_skewed_model_parity(accel):
    """Non-uniform probabilities exercise different per-character roots."""
    model = BernoulliModel("abc", [0.6, 0.3, 0.1])
    texts = [generate_null_string(model, n, seed=n) for n in (63, 300, 700)]
    indexes = [PrefixCountIndex(model.encode(t), model.k) for t in texts]
    spec = JobSpec()
    expected = get_backend("python").mine_batch(indexes, model, spec)
    assert get_backend(accel).mine_batch(indexes, model, spec) == expected


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
def test_mine_batch_minlength_one_is_not_the_binary_fast_path(accel):
    """minlength with min_length == 1 at k == 2 walks the generic
    arithmetic, as the reference does: its X² differs from mss's binary
    form in the last ulp on a near-zero probability."""
    model = BernoulliModel("ab", [1e-6 / (1 + 1e-6), 1 / (1 + 1e-6)])
    indexes = [
        PrefixCountIndex(np.array(codes, dtype=np.int64), 2)
        for codes in ([1], [0, 1, 1], [1, 1, 0, 1])
    ]
    spec = JobSpec(problem="minlength", min_length=1)
    expected = get_backend("python").mine_batch(indexes, model, spec)
    assert expected != get_backend("python").mine_batch(
        indexes, model, JobSpec()
    )
    assert get_backend(accel).mine_batch(indexes, model, spec) == expected


@pytest.mark.parametrize("accel", ACCEL_BACKENDS)
def test_mine_batch_threshold_limit_truncates_per_document(accel):
    """Each document truncates at its own point; neighbours are unaffected.

    The long document's scan stops mid-wavefront at exactly the
    reference scan's row, while the short all-'a' document (every
    substring matching) truncates immediately -- and both report the
    reference's exact match prefix, counters and truncation flags.
    """
    model = BernoulliModel.uniform("ab")
    texts = [
        "a" * 30,
        generate_null_string(model, 500, seed=3),
        generate_null_string(model, 200, seed=4),
    ]
    indexes = [PrefixCountIndex(model.encode(t), model.k) for t in texts]
    spec = JobSpec(problem="threshold", threshold=1.0, limit=25)
    python = get_backend("python")
    expected = [mine_reference(python, i, model, spec) for i in indexes]
    for name in ("python", accel):
        got = get_backend(name).mine_batch(indexes, model, spec)
        assert got == expected, name
    assert all(raw[2] for raw in expected)  # every document truncated
    assert all(len(raw[0]) == 25 for raw in expected)


def test_mine_batch_rejects_unknown_problem():
    class FakeSpec:
        problem = "episodes"

    model = BernoulliModel.uniform("ab")
    index = PrefixCountIndex(model.encode("abab"), model.k)
    # "native" is included unconditionally: with no compiler it delegates
    # to numpy, which must reject identically.
    for name in ("python", "numpy", "native"):
        with pytest.raises(ValueError, match="unknown problem"):
            get_backend(name).mine_batch([index], model, FakeSpec())
