"""The calling thread's multi-document path: windows of 32 documents.

Every run that does not go to the native lanes -- numpy, python, or a
single document on any backend -- mines on the calling thread, one
:func:`run_job_batch` call (one kernel ``mine_batch`` call per (spec,
model) group) per window of 32 documents.  Grouping is invisible: for
every problem and backend, and corpora on both sides of the window's
edges, the per-document payloads equal per-document :func:`run_job`.
"""

import pytest

from repro.core.model import BernoulliModel
from repro.engine import (
    JobSpec,
    MiningJob,
    ThreadExecutor,
    run_job,
    run_job_batch,
)
from repro.generators import generate_null_string
from repro.kernels import resolved_backend_name
from repro.kernels.numpy_backend import NumpyBackend

NATIVE = resolved_backend_name("native") == "native"

BACKENDS = [
    "python",
    "numpy",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not NATIVE,
            reason="native backend unavailable (no C compiler or cached "
                   "artifact)",
        ),
    ),
]

#: Corpus sizes at the window's edges: one document, one short of a
#: window, a window, one past it, and two windows plus a remainder.
SIZES = [1, 31, 32, 33, 70]


@pytest.fixture(scope="module")
def model():
    return BernoulliModel.uniform("ab")


@pytest.fixture(scope="module")
def corpus(model):
    """70 ragged documents, a planted burst in every sixth."""
    texts = []
    for i in range(70):
        text = generate_null_string(model, 20 + 13 * (i % 5), seed=200 + i)
        if i % 6 == 0:
            text = text[:5] + "a" * 12 + text[17:]
        texts.append(text)
    return texts


def _payloads(documents):
    return [doc.payload(include_timing=False) for doc in documents]


SPECS = [
    JobSpec(),
    JobSpec(problem="top", t=4),
    JobSpec(problem="threshold", threshold=2.0),
    JobSpec(problem="threshold", threshold=1.0, limit=5),
    JobSpec(problem="minlength", min_length=3),
    JobSpec(problem="minlength", min_length=60),  # exceeds the short docs
]


class TestWindowParity:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_equal_to_run_job(self, model, corpus, backend, spec, size):
        spec = JobSpec(**{**spec.__dict__, "backend": backend})
        jobs = [
            MiningJob(f"doc-{i}", text, spec, model)
            for i, text in enumerate(corpus[:size])
        ]
        mined = ThreadExecutor(1).run_jobs(jobs)
        assert _payloads(mined) == _payloads(run_job(job) for job in jobs)

    def test_mixed_specs_make_one_call_per_group_and_window(
        self, model, corpus, monkeypatch
    ):
        calls = []
        real = NumpyBackend.mine_batch

        def spy(self, indexes, model, spec):
            calls.append((spec.problem, len(indexes)))
            return real(self, indexes, model, spec)

        monkeypatch.setattr(NumpyBackend, "mine_batch", spy)
        specs = [
            JobSpec(backend="numpy"),
            JobSpec(problem="top", t=3, backend="numpy"),
            JobSpec(problem="threshold", threshold=1.5, backend="numpy"),
        ]
        jobs = [
            MiningJob(f"doc-{i}", text, specs[i % 3], model)
            for i, text in enumerate(corpus[:33])
        ]
        mined = ThreadExecutor(1).run_jobs(jobs)
        # Window one: documents 0-31 in three groups; window two:
        # document 32, a threshold job.
        assert calls == [
            ("mss", 11), ("top", 11), ("threshold", 10), ("threshold", 1),
        ]
        assert _payloads(mined) == _payloads(run_job(job) for job in jobs)


class TestRunJobBatch:
    def test_matches_run_job(self, model, corpus):
        jobs = [
            MiningJob(f"doc-{i}", text, JobSpec(), model)
            for i, text in enumerate(corpus)
        ]
        expected = [run_job(job).payload(include_timing=False) for job in jobs]
        got = [
            doc.payload(include_timing=False) for doc in run_job_batch(jobs)
        ]
        assert got == expected

    def test_short_minlength_documents_skip_the_kernel(self, model):
        spec = JobSpec(problem="minlength", min_length=50)
        jobs = [
            MiningJob("long", "ab" * 40, spec, model),
            MiningJob("short", "ab" * 10, spec, model),
        ]
        docs = run_job_batch(jobs)
        assert docs[0].substrings and docs[0].best.length >= 50
        assert docs[1].substrings == ()
        assert docs[1].p_value == 1.0
        assert docs[1].stats.substrings_evaluated == 0

    def test_empty_chunk(self):
        assert run_job_batch([]) == []

    def test_elapsed_attributed_per_document(self, model, corpus):
        jobs = [
            MiningJob(f"doc-{i}", text, JobSpec(), model)
            for i, text in enumerate(corpus[:4])
        ]
        docs = run_job_batch(jobs)
        shares = {doc.stats.elapsed_seconds for doc in docs}
        assert len(shares) == 1  # even share of one fused kernel call
        assert shares.pop() >= 0.0


class TestValidation:
    def test_degenerate_threshold_limit_rejected_at_spec(self):
        with pytest.raises(ValueError, match="limit"):
            JobSpec(problem="threshold", threshold=1.0, limit=0)
