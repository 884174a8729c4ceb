"""The executors: serial and the thread tier, bit-identical to serial.

``ThreadExecutor`` is only allowed to exist because it is the serial
engine, faster: every per-document payload -- scores, intervals,
substring orderings, evaluated/skipped counters, truncation flags --
must equal :class:`~repro.engine.executors.SerialExecutor`'s across
problems, backends, worker counts and batch sizes.  Native kernels mine
one document per thread task; every other backend mines on the calling
thread.  An expired batch deadline stops a run before its remaining
documents start.
"""

import json
import sys
import threading
import time

import pytest

import repro.engine.executors as executors_module
from repro.core.model import BernoulliModel
from repro.engine import (
    CorpusEngine,
    Deadline,
    DeadlineExceeded,
    JobSpec,
    MiningJob,
    SerialExecutor,
    ThreadExecutor,
    reset_active_deadline,
    set_active_deadline,
)
from repro.generators import generate_null_string
from repro.kernels import resolved_backend_name
from repro.obs.metrics import MetricsRegistry

NATIVE = resolved_backend_name("native") == "native"
needs_native = pytest.mark.skipif(
    not NATIVE,
    reason="native backend unavailable (no C compiler or cached "
           "artifact); every run then mines on one thread",
)


@pytest.fixture(scope="module")
def model():
    return BernoulliModel.uniform("ab")


@pytest.fixture(scope="module")
def corpus(model):
    """Ragged corpus: 1-symbol documents up, bursts every sixth doc."""
    texts = ["a", "b"]
    for i in range(21):
        text = generate_null_string(model, 30 + 37 * (i % 5), seed=400 + i)
        if i % 6 == 0:
            text = text[:15] + "a" * 12 + text[27:]
        texts.append(text)
    return texts


def _canonical(result):
    return json.dumps(
        [doc.payload(include_timing=False) for doc in result.documents],
        sort_keys=True,
    )


PROBLEMS = [
    JobSpec(),
    JobSpec(problem="top", t=4),
    JobSpec(problem="threshold", threshold=2.0),
    JobSpec(problem="threshold", threshold=1.0, limit=5),
    JobSpec(problem="threshold", threshold=0.5, limit=1),
    JobSpec(problem="threshold", threshold=1e9),  # empty answers
    JobSpec(problem="minlength", min_length=3),
    JobSpec(problem="minlength", min_length=90),  # exceeds the short docs
]

BACKENDS = ["python", "numpy", pytest.param("native", marks=needs_native)]


class TestThreadParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("spec", PROBLEMS, ids=repr)
    @pytest.mark.parametrize("workers", [2, 3])
    def test_equal_to_serial(self, model, corpus, spec, backend, workers):
        spec = JobSpec(**{**spec.__dict__, "backend": backend})
        reference = CorpusEngine().run_texts(corpus, model, spec)
        with ThreadExecutor(workers) as executor:
            threaded = CorpusEngine(executor=executor).run_texts(
                corpus, model, spec
            )
        assert _canonical(threaded) == _canonical(reference)
        for mine, ref in zip(threaded.documents, reference.documents):
            assert [s.chi_square for s in mine.substrings] == [
                s.chi_square for s in ref.substrings
            ]
            assert [(s.start, s.end) for s in mine.substrings] == [
                (s.start, s.end) for s in ref.substrings
            ]
            assert mine.stats.substrings_evaluated == (
                ref.stats.substrings_evaluated
            )
            assert mine.stats.positions_skipped == ref.stats.positions_skipped
            assert mine.truncated == ref.truncated
        assert threaded.stats.substrings_evaluated == (
            reference.stats.substrings_evaluated
        )
        assert threaded.stats.positions_skipped == (
            reference.stats.positions_skipped
        )

    @pytest.mark.parametrize("batch_docs", [None, 1, 3, 999])
    def test_batch_docs_is_invisible(self, model, corpus, batch_docs):
        reference = _canonical(CorpusEngine().run_texts(corpus, model))
        with ThreadExecutor(2) as executor:
            result = CorpusEngine(executor=executor).run_texts(
                corpus, model, batch_docs=batch_docs
            )
        assert _canonical(result) == reference

    def test_mixed_spec_and_backend_groups(self, model, corpus):
        specs = [
            JobSpec(),
            JobSpec(problem="top", t=3),
            JobSpec(problem="threshold", threshold=1.5, limit=4),
            JobSpec(backend="numpy"),
        ]
        jobs = [
            MiningJob(f"doc-{i}", text, specs[i % 4], model)
            for i, text in enumerate(corpus)
        ]
        reference = _canonical(CorpusEngine().run(jobs))
        with ThreadExecutor(2) as executor:
            assert _canonical(CorpusEngine(executor=executor).run(jobs)) == (
                reference
            )

    def test_result_metadata(self, model, corpus):
        with ThreadExecutor(2) as executor:
            result = CorpusEngine(executor=executor).run_texts(corpus, model)
        assert result.executor == "thread"
        assert result.workers == 2

    @needs_native
    def test_stress_mixed_spec_batches(self, model):
        """4 threads (more than cores) x 50 mixed-spec batches on one
        persistent pool, with a short switch interval: every batch
        equals serial, and the shared evaluation counter loses no
        update."""
        specs = [
            JobSpec(backend="native"),
            JobSpec(problem="top", t=5, backend="native"),
            JobSpec(problem="threshold", threshold=3.0, limit=6,
                    backend="native"),
            JobSpec(problem="minlength", min_length=20, backend="native"),
        ]
        serial = CorpusEngine()
        metrics = MetricsRegistry()
        evaluated = 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadExecutor(4) as executor:
                engine = CorpusEngine(executor=executor, metrics=metrics)
                for batch in range(50):
                    jobs = [
                        MiningJob(
                            f"b{batch}-d{i}",
                            generate_null_string(
                                model, 10 + (batch * 7 + i * 13) % 400,
                                seed=batch * 100 + i,
                            ),
                            specs[(batch + i) % 4],
                            model,
                        )
                        for i in range(2 + batch % 9)
                    ]
                    reference = serial.run(jobs)
                    evaluated += reference.stats.substrings_evaluated
                    assert _canonical(engine.run(jobs)) == _canonical(
                        reference
                    ), batch
                assert executor.started
        finally:
            sys.setswitchinterval(interval)
        counter = metrics.get("repro_kernel_x2_evaluations_total")
        assert counter.labels(backend="native").value == evaluated


class TestThreadTier:
    def test_threads_follow_the_resolved_backend(self):
        executor = ThreadExecutor(3)
        assert executor.threads("python") == 1
        assert executor.threads("numpy") == 1
        assert executor.threads("native") == (3 if NATIVE else 1)
        assert ThreadExecutor(1).threads("native") == 1

    def test_gil_bound_backends_mine_on_the_calling_thread(
        self, model, corpus, monkeypatch
    ):
        """numpy/python runs never touch the pool: one thread, in
        ``batch_docs`` chunks, as ``--workers 1`` does."""
        seen = []
        real = executors_module.run_job_batch

        def spy(jobs):
            seen.append((threading.current_thread(), len(jobs)))
            return real(jobs)

        monkeypatch.setattr(executors_module, "run_job_batch", spy)
        executor = ThreadExecutor(2)
        CorpusEngine(executor=executor, batch_docs=8).run_texts(
            corpus, model, JobSpec(backend="numpy")
        )
        assert {thread for thread, _ in seen} == {threading.current_thread()}
        assert [size for _, size in seen] == [8, 8, 7]
        assert executor.started is False

    @needs_native
    def test_native_runs_one_task_per_document(
        self, model, corpus, monkeypatch
    ):
        seen = []
        real = executors_module.run_job

        def spy(job):
            seen.append(threading.current_thread().name)
            return real(job)

        monkeypatch.setattr(executors_module, "run_job", spy)
        with ThreadExecutor(2) as executor:
            CorpusEngine(executor=executor, batch_docs=8).run_texts(
                corpus, model, JobSpec(backend="native")
            )
        assert len(seen) == len(corpus)
        assert all(name.startswith("repro-miner") for name in seen)

    def test_default_workers_positive(self):
        assert ThreadExecutor().workers >= 1

    def test_pool_is_persistent_and_restartable(self, model, corpus):
        executor = ThreadExecutor(2)
        reference = _canonical(CorpusEngine().run_texts(corpus, model))
        with CorpusEngine(executor=executor) as engine:
            for _ in range(2):
                assert _canonical(engine.run_texts(corpus, model)) == reference
            assert executor.started is NATIVE
        assert executor.started is False  # the engine closed it
        executor.close()  # idempotent
        assert _canonical(
            CorpusEngine(executor=executor).run_texts(corpus, model)
        ) == reference
        executor.close()


class TestDeadlines:
    def _run(self, executor, jobs, deadline, batch_docs=None):
        token = set_active_deadline(deadline)
        try:
            return executor.run_jobs(jobs, batch_docs=batch_docs)
        finally:
            reset_active_deadline(token)

    def _jobs(self, model, count, spec=JobSpec()):
        return [
            MiningJob(f"doc-{i}", "ab" * 40, spec, model)
            for i in range(count)
        ]

    @needs_native
    def test_expired_batch_stops_before_its_remaining_tasks(
        self, model, monkeypatch
    ):
        """The deadline passes while the first documents mine: no task
        that starts afterwards reaches the kernel."""
        started = []
        real = executors_module.run_job

        def slow(job):
            started.append(job.doc_id)
            time.sleep(0.05)
            return real(job)

        monkeypatch.setattr(executors_module, "run_job", slow)
        jobs = self._jobs(model, 20, JobSpec(backend="native"))
        with ThreadExecutor(2) as executor:
            with pytest.raises(DeadlineExceeded):
                self._run(
                    executor, jobs, Deadline(time.monotonic() + 0.02)
                )
        time.sleep(0.1)  # any task still running has finished by now
        assert 1 <= len(started) <= 2  # one per thread, then the check

    def test_serial_path_checks_before_each_kernel_call(self, model):
        jobs = self._jobs(model, 6, JobSpec(backend="python"))
        expired = Deadline(time.monotonic() - 1.0)
        for executor in (SerialExecutor(), ThreadExecutor(2)):
            for batch_docs in (None, 2):
                with pytest.raises(DeadlineExceeded, match="6 or more"):
                    self._run(executor, jobs, expired, batch_docs)

    def test_expired_native_batch_mines_nothing(self, model):
        jobs = self._jobs(model, 6)
        with ThreadExecutor(2) as executor:
            with pytest.raises(DeadlineExceeded):
                self._run(executor, jobs, Deadline(time.monotonic() - 1.0))

    def test_live_deadline_changes_nothing(self, model, corpus):
        jobs = [
            MiningJob(f"doc-{i}", text, JobSpec(), model)
            for i, text in enumerate(corpus)
        ]
        reference = CorpusEngine().mine_documents(jobs)
        with ThreadExecutor(2) as executor:
            mined = self._run(executor, jobs, Deadline(time.monotonic() + 60))
        assert [d.payload(include_timing=False) for d in mined] == [
            d.payload(include_timing=False) for d in reference
        ]
