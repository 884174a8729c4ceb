"""The thread tier, bit-identical to serial.

``ThreadExecutor`` with several workers is only allowed to exist
because it is the serial engine, faster: every per-document payload --
scores, intervals, substring orderings, evaluated/skipped counters,
truncation flags -- must equal ``ThreadExecutor(1)``'s across
problems, backends and worker counts.  Native kernels mine on the
lanes of every worker thread, which claim documents from one cursor per
group; every other backend mines on the calling thread, in windows of
32 documents.  An expired batch deadline stops a run from claiming its
remaining documents.
"""

import json
import sys
import threading
import time
import tracemalloc

import pytest

import repro.engine.executors as executors_module
from repro.core.model import BernoulliModel
from repro.kernels.native_backend import NativeBackend
from repro.engine import (
    CorpusEngine,
    Deadline,
    DeadlineExceeded,
    JobSpec,
    MiningJob,
    ThreadExecutor,
    reset_active_deadline,
    set_active_deadline,
)
from repro.engine.jobs import run_job
from repro.generators import generate_null_string
from repro.kernels import get_backend, resolved_backend_name
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


def _serial(**kwargs):
    return CorpusEngine(executor=ThreadExecutor(1), **kwargs)


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


def _spy_mine_batch(monkeypatch):
    """Record ``(thread name, problem, claimed documents)`` for every
    native ``mine_batch`` call."""
    calls = []
    real = NativeBackend.mine_batch

    def spy(self, indexes, model, spec, cursor=None):
        raws = real(self, indexes, model, spec, cursor=cursor)
        calls.append((
            threading.current_thread().name,
            spec.problem,
            [doc for doc, raw in enumerate(raws) if raw is not None],
        ))
        return raws

    monkeypatch.setattr(NativeBackend, "mine_batch", spy)
    return calls


def _spy_run_job_batch(monkeypatch, after=None):
    """Record ``(thread, documents)`` for every calling-thread window
    (``run_job_batch`` call); ``after(jobs)`` runs once each is mined."""
    seen = []
    real = executors_module.run_job_batch

    def spy(jobs):
        seen.append((threading.current_thread(), len(jobs)))
        documents = real(jobs)
        if after is not None:
            after(jobs)
        return documents

    monkeypatch.setattr(executors_module, "run_job_batch", spy)
    return seen


class TestThreadParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("spec", PROBLEMS, ids=repr)
    @pytest.mark.parametrize("workers", [2, 3])
    def test_equal_to_serial(self, model, corpus, spec, backend, workers):
        spec = JobSpec(**{**spec.__dict__, "backend": backend})
        reference = _serial().run_texts(corpus, model, spec)
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
        reference = _canonical(_serial().run(jobs))
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
        serial = _serial()
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
        self, model, monkeypatch
    ):
        """numpy/python runs never touch the pool: one thread, in
        windows of 32 documents, as ``--workers 1`` does."""
        seen = _spy_run_job_batch(monkeypatch)
        executor = ThreadExecutor(2)
        texts = [generate_null_string(model, 40, seed=i) for i in range(70)]
        CorpusEngine(executor=executor).run_texts(
            texts, model, JobSpec(backend="numpy")
        )
        assert {thread for thread, _ in seen} == {threading.current_thread()}
        assert [size for _, size in seen] == [32, 32, 6]
        assert executor.started is False

    @needs_native
    def test_native_runs_on_the_lanes_of_every_thread(
        self, model, corpus, monkeypatch
    ):
        """Each pool thread makes one lane call over the shared cursor;
        together they claim every document exactly once."""
        calls = _spy_mine_batch(monkeypatch)
        with ThreadExecutor(2) as executor:
            CorpusEngine(executor=executor).run_texts(
                corpus, model, JobSpec(backend="native")
            )
        assert len(calls) == 2
        assert all(name.startswith("repro-miner") for name, _, _ in calls)
        assert sorted(doc for _, _, docs in calls for doc in docs) == list(
            range(len(corpus))
        )

    @needs_native
    def test_one_worker_runs_the_lanes_on_the_calling_thread(
        self, model, corpus, monkeypatch
    ):
        calls = _spy_mine_batch(monkeypatch)
        executor = ThreadExecutor(1)
        CorpusEngine(executor=executor).run_texts(
            corpus, model, JobSpec(backend="native")
        )
        window = executors_module._WINDOW_DOCS
        assert len(corpus) > window
        assert [(name, len(docs)) for name, _, docs in calls] == [
            (threading.current_thread().name, window),
            (threading.current_thread().name, len(corpus) - window),
        ]
        assert executor.started is False

    @needs_native
    def test_no_thread_idles_while_another_group_waits(
        self, model, monkeypatch
    ):
        """One long mss document and six small top-t documents: the
        thread that drew the long scan claims none of the top-t group,
        which the other thread mines meanwhile."""
        calls = _spy_mine_batch(monkeypatch)
        long_text = generate_null_string(model, 60_000, seed=1)
        jobs = [MiningJob("long", long_text, JobSpec(backend="native"), model)]
        jobs += [
            MiningJob(
                f"top-{i}", generate_null_string(model, 300, seed=10 + i),
                JobSpec(problem="top", t=3, backend="native"), model,
            )
            for i in range(6)
        ]
        with ThreadExecutor(2) as executor:
            mined = executor.run_jobs(jobs)
        assert [doc.doc_id for doc in mined] == [job.doc_id for job in jobs]
        (long_thread,) = {
            name for name, problem, docs in calls
            if problem == "mss" and docs
        }
        top = {
            name: len(docs) for name, problem, docs in calls
            if problem == "top"
        }
        assert top.get(long_thread, 0) == 0
        assert sum(top.values()) == 6

    def test_default_workers_positive(self):
        assert ThreadExecutor().workers >= 1

    def test_pool_is_persistent_and_restartable(self, model, corpus):
        executor = ThreadExecutor(2)
        reference = _canonical(_serial().run_texts(corpus, model))
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


class TestWindows:
    """A native run longer than ``workers * _WINDOW_DOCS`` documents is
    indexed and mined one window at a time, so its prefix matrices are
    never all alive at once."""

    @needs_native
    @pytest.mark.parametrize("workers", [1, 2])
    def test_long_run_mines_window_by_window(
        self, model, monkeypatch, workers
    ):
        sizes = []
        real = NativeBackend.mine_batch

        def spy(self, indexes, model, spec, cursor=None):
            sizes.append(len(indexes))
            return real(self, indexes, model, spec, cursor=cursor)

        monkeypatch.setattr(NativeBackend, "mine_batch", spy)
        window = workers * executors_module._WINDOW_DOCS
        jobs = [
            MiningJob(
                f"doc-{i}", generate_null_string(model, 1 + 9 * (i % 7), seed=i),
                JobSpec(backend="native"), model,
            )
            for i in range(2 * window + 3)
        ]
        with ThreadExecutor(workers) as executor:
            mined = executor.run_jobs(jobs)
        assert sorted(sizes) == [3] * workers + [window] * (2 * workers)
        assert [d.payload(include_timing=False) for d in mined] == [
            run_job(job).payload(include_timing=False) for job in jobs
        ]

    @needs_native
    def test_peak_memory_is_one_window_not_the_run(self, model):
        """tracemalloc sees numpy's buffers.  Eight windows of documents
        would hold eight windows of prefix matrices if the run were
        indexed at once; mining peaks below two."""
        workers, n = 2, 2_000
        window = workers * executors_module._WINDOW_DOCS
        texts = [
            generate_null_string(model, n, seed=i) for i in range(8 * window)
        ]
        per_doc = 8 * (model.k + 1) * (n + 1)  # int64 codes + (k, n + 1)
        with ThreadExecutor(workers) as executor:
            engine = CorpusEngine(executor=executor)
            tracemalloc.start()
            try:
                engine.run_texts(texts, model, JobSpec(backend="native"))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 2 * window * per_doc


class TestDeadlines:
    def _run(self, executor, jobs, deadline):
        token = set_active_deadline(deadline)
        try:
            return executor.run_jobs(jobs)
        finally:
            reset_active_deadline(token)

    def _jobs(self, model, count, spec=JobSpec()):
        return [
            MiningJob(f"doc-{i}", "ab" * 40, spec, model)
            for i in range(count)
        ]

    @needs_native
    @pytest.mark.parametrize("workers", [1, 2])
    def test_expired_batch_claims_no_further_document(
        self, model, monkeypatch, workers
    ):
        """The deadline passes while the first documents mine (each
        lane's scan outlasts it): no lane claims a second document, the
        ones in flight finish, and the run raises.  A call runs eight
        lanes on the AVX2 step and four on the scalar one, and the run
        has more documents than all the lanes together."""
        lanes = 8 if get_backend("native").lane_step == "avx2" else 4
        calls = _spy_mine_batch(monkeypatch)
        text = generate_null_string(model, 60_000, seed=3)
        jobs = [
            MiningJob(f"doc-{i}", text, JobSpec(backend="native"), model)
            for i in range(lanes * workers + 4)
        ]
        with ThreadExecutor(workers) as executor:
            with pytest.raises(DeadlineExceeded, match="unmined"):
                self._run(
                    executor, jobs, Deadline(time.monotonic() + 0.15)
                )
        claimed = sum(len(docs) for _, _, docs in calls)
        assert 1 <= claimed <= lanes * workers  # one per lane, then the check

    def test_serial_path_checks_before_each_kernel_call(self, model):
        jobs = self._jobs(model, 6, JobSpec(backend="python"))
        expired = Deadline(time.monotonic() - 1.0)
        for executor in (ThreadExecutor(1), ThreadExecutor(2)):
            with pytest.raises(DeadlineExceeded, match="6 or more"):
                self._run(executor, jobs, expired)

    def test_serial_path_stops_before_the_next_window(
        self, model, monkeypatch
    ):
        """The deadline passes while the first window mines: the second
        window is never mined, and the run names the 38 left."""
        deadline = Deadline(time.monotonic() + 0.5)

        def outlast_the_deadline(jobs):
            time.sleep(max(0.0, deadline.remaining()) + 0.01)

        seen = _spy_run_job_batch(monkeypatch, outlast_the_deadline)
        jobs = self._jobs(model, 70, JobSpec(backend="numpy"))
        with pytest.raises(DeadlineExceeded, match="38 or more"):
            self._run(ThreadExecutor(1), jobs, deadline)
        assert [size for _, size in seen] == [32]

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
        reference = _serial().mine_documents(jobs)
        with ThreadExecutor(2) as executor:
            mined = self._run(executor, jobs, Deadline(time.monotonic() + 60))
        assert [d.payload(include_timing=False) for d in mined] == [
            d.payload(include_timing=False) for d in reference
        ]
