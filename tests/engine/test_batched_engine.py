"""The engine's batched corpus path: identical results, fewer kernel calls.

``CorpusEngine(batch_docs=N)`` must be a pure throughput knob: for every
problem, backend, executor and batch size -- including batch sizes of 1,
sizes that do not divide the corpus, and sizes larger than it -- the
per-document payloads are byte-identical to the per-document dispatch
path.  The serial engine (``ThreadExecutor(1)``) is the one that honours
``batch_docs`` on every backend, so it is the one under test here.
"""

import json

import pytest

from repro.core.model import BernoulliModel
from repro.engine import (
    CorpusEngine,
    JobSpec,
    MiningJob,
    ThreadExecutor,
    run_job,
    run_job_batch,
)
from repro.generators import generate_null_string


@pytest.fixture(scope="module")
def model():
    return BernoulliModel.uniform("ab")


@pytest.fixture(scope="module")
def corpus(model):
    """Ragged corpus with planted bursts every sixth document."""
    texts = []
    for i in range(23):
        text = generate_null_string(model, 40 + 29 * (i % 5), seed=200 + i)
        if i % 6 == 0:
            text = text[:20] + "a" * 12 + text[32:]
        texts.append(text)
    return texts


def _serial(**kwargs):
    return CorpusEngine(executor=ThreadExecutor(1), **kwargs)


def _canonical(result):
    return json.dumps(
        [doc.payload(include_timing=False) for doc in result.documents],
        sort_keys=True,
    )


SPECS = [
    JobSpec(),
    JobSpec(problem="top", t=4),
    JobSpec(problem="threshold", threshold=2.0),
    JobSpec(problem="threshold", threshold=1.0, limit=5),
    JobSpec(problem="minlength", min_length=3),
    JobSpec(problem="minlength", min_length=60),  # exceeds the short docs
]


class TestBatchedParity:
    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_batch_docs_is_invisible(self, model, corpus, spec):
        reference = _canonical(_serial().run_texts(corpus, model, spec))
        for batch_docs in (1, 4, 10, 23, 99):
            batched = _serial(batch_docs=batch_docs).run_texts(
                corpus, model, spec
            )
            assert _canonical(batched) == reference, batch_docs
            assert batched.batch_docs == batch_docs

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_batched_parity_per_backend(self, model, corpus, backend):
        spec = JobSpec(backend=backend)
        reference = _canonical(_serial().run_texts(corpus, model, spec))
        batched = _serial(batch_docs=6).run_texts(corpus, model, spec)
        assert _canonical(batched) == reference

    def test_batched_with_parallel_executors(self, model, corpus):
        reference = _canonical(_serial().run_texts(corpus, model))
        for executor in (ThreadExecutor(1), ThreadExecutor(workers=3)):
            batched = CorpusEngine(executor=executor, batch_docs=5).run_texts(
                corpus, model
            )
            assert _canonical(batched) == reference

    def test_mixed_specs_group_within_chunks(self, model, corpus):
        specs = [
            JobSpec(),
            JobSpec(problem="top", t=3),
            JobSpec(problem="threshold", threshold=1.5),
        ]
        jobs = [
            MiningJob(f"doc-{i}", text, specs[i % 3], model)
            for i, text in enumerate(corpus)
        ]
        reference = _canonical(_serial().run(jobs))
        batched = _canonical(_serial().run(jobs, batch_docs=7))
        assert batched == reference


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
    def test_bad_batch_docs_rejected(self, model):
        with pytest.raises(ValueError, match="batch_docs"):
            CorpusEngine(batch_docs=0)
        with pytest.raises(ValueError, match="batch_docs"):
            CorpusEngine(batch_docs=True)
        engine = CorpusEngine()
        with pytest.raises(ValueError, match="batch_docs"):
            engine.run_texts(["ab"], model, batch_docs=-3)

    def test_batch_docs_in_payload(self, model):
        result = CorpusEngine(batch_docs=2).run_texts(["ab" * 10], model)
        assert result.payload()["batch_docs"] == 2
        result = CorpusEngine().run_texts(["ab" * 10], model)
        assert result.payload()["batch_docs"] is None

    def test_degenerate_threshold_limit_rejected_at_spec(self):
        with pytest.raises(ValueError, match="limit"):
            JobSpec(problem="threshold", threshold=1.0, limit=0)
