"""The executor: how the corpus engine mines a job list.

:class:`ThreadExecutor` honours one contract,
``run_jobs(jobs, batch_docs=...)`` returning one
:class:`~repro.engine.jobs.DocumentResult` per job, on a persistent
pool of threads, one task per document.  Only the compiled ``native``
kernels gain from it: their ctypes calls release the GIL and the C
source has no mutable globals, so documents mine in parallel inside one
process.  Jobs on any other backend (numpy, python, or ``native``
fallen back to numpy on a host without a compiler) hold the GIL, and
threads would only add contention, so the executor mines those on the
calling thread, ``batch_docs`` documents per kernel call.  So does
``ThreadExecutor(1)``, the serial reference for correctness, which
never starts a pool.  With no argument the executor takes one thread
per usable CPU (its affinity mask where the OS has one).

Results keep job order, so they are identical to serial regardless of
completion order -- the engine's parity guarantee rests on this.  A
batch deadline installed with
:func:`~repro.engine.deadline.set_active_deadline` is checked before
each kernel call (calling thread) or before each per-document task
starts and while results are collected (pool), and an expired run stops
with :class:`~repro.engine.deadline.DeadlineExceeded` instead of mining
the remaining documents.

The same pool scores Monte-Carlo calibration:
:class:`~repro.engine.corpus.CorpusEngine` hands its executor to the
calibration cache, and the native ``simulate_x2max`` scores each
chunk's trials through :meth:`ThreadExecutor.map`, so an engine runs
one pool, not two.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
from typing import Callable, Iterable, Sequence

from repro.engine.deadline import DeadlineExceeded, active_deadline
from repro.engine.jobs import DocumentResult, MiningJob, run_job, run_job_batch
from repro.kernels import resolved_backend_name

__all__ = ["ThreadExecutor"]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has
    one (so ``taskset`` and container CPU sets are respected), else
    ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


def _check_deadline(deadline, unmined: int) -> None:
    if deadline is not None and deadline.expired():
        raise DeadlineExceeded(
            f"batch deadline passed with {unmined} or more document(s) "
            "unmined"
        )


def _mine_serially(
    jobs: Sequence[MiningJob], batch_docs: int | None, deadline
) -> list[DocumentResult]:
    """Mine ``jobs`` on the calling thread, in order.

    ``batch_docs`` documents go through one kernel ``mine_batch`` call
    (:func:`~repro.engine.jobs.run_job_batch`); ``None`` mines one
    document per call (:func:`~repro.engine.jobs.run_job`).  An expired
    ``deadline`` stops the run before its next call.
    """
    size = batch_docs or 1
    documents: list[DocumentResult] = []
    for lo in range(0, len(jobs), size):
        _check_deadline(deadline, len(jobs) - lo)
        if batch_docs is None:
            documents.append(run_job(jobs[lo]))
        else:
            documents.extend(run_job_batch(jobs[lo : lo + size]))
    return documents


class ThreadExecutor:
    """Mine documents on a persistent pool of threads.

    ``workers`` defaults to one per usable CPU.  The pool starts on the
    first parallel run and lives until :meth:`close`, so a service pays
    thread start-up once.  A run goes parallel only when every job's
    backend resolves to ``native`` (:meth:`threads`); otherwise it
    mines on the calling thread in ``batch_docs`` chunks, as
    ``ThreadExecutor(1)`` always does.

    >>> ThreadExecutor(workers=2).threads("python")
    1
    >>> ThreadExecutor(1).started
    False
    """

    name = "thread"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = max(
            1, workers if workers is not None else _usable_cpus()
        )
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    @property
    def started(self) -> bool:
        """Whether the thread pool is currently running."""
        return self._pool is not None

    def threads(self, backend=None) -> int:
        """How many threads mine jobs on ``backend``: every worker when
        it resolves to ``native`` (GIL-free kernels), else one."""
        if self.workers > 1 and resolved_backend_name(backend) == "native":
            return self.workers
        return 1

    def _ensure_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-miner"
                )
            return self._pool

    def map(self, fn: Callable, items: Iterable) -> list:
        """``[fn(item) for item in items]``, one pool task per item.

        Native calibration passes one row slice per :meth:`threads`.
        A single item, or a one-worker executor, runs on the calling
        thread.  Never call it from inside a pool task: the task would
        wait on work queued behind itself.
        """
        items = list(items)
        if self.workers == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(fn, items))

    def run_jobs(
        self, jobs: Sequence[MiningJob], *, batch_docs: int | None = None
    ) -> list[DocumentResult]:
        """Mine every job; results in job order, identical to serial.

        On native kernels each document is one pool task; the batch
        deadline is checked before each task starts and bounds the wait
        for every result, and on expiry the tasks not yet started are
        cancelled.
        """
        deadline = active_deadline()
        backends = {job.spec.backend for job in jobs}
        if len(jobs) <= 1 or min(map(self.threads, backends)) == 1:
            return _mine_serially(jobs, batch_docs, deadline)

        def task(job: MiningJob) -> DocumentResult:
            _check_deadline(deadline, 1)
            return run_job(job)

        pool = self._ensure_pool()
        futures = [pool.submit(task, job) for job in jobs]
        try:
            return [
                future.result(
                    timeout=None if deadline is None
                    else max(0.0, deadline.remaining())
                )
                for future in futures
            ]
        except concurrent.futures.TimeoutError:
            raise DeadlineExceeded(
                "batch deadline passed while documents were mining"
            ) from None
        finally:
            for future in futures:
                future.cancel()

    def close(self) -> None:
        """Stop the thread pool (idempotent); a later run restarts it."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ThreadExecutor":
        """Context-manager entry: returns the executor itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: :meth:`close` the thread pool."""
        self.close()

    def __repr__(self) -> str:
        return f"ThreadExecutor(workers={self.workers})"
