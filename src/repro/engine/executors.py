"""Executors: how the corpus engine mines a job list.

Two strategies behind one contract, ``run_jobs(jobs, batch_docs=...)``
returning one :class:`~repro.engine.jobs.DocumentResult` per job:

* :class:`SerialExecutor` -- the calling thread mines everything,
  ``batch_docs`` documents per kernel call (one call per document when
  ``batch_docs`` is ``None``); the reference for correctness.
* :class:`ThreadExecutor` -- a persistent pool of threads, one task per
  document.  Only the compiled ``native`` kernels gain from it: their
  ctypes calls release the GIL and the C source has no mutable globals,
  so documents mine in parallel inside one process.  Jobs on any other
  backend (numpy, python, or ``native`` fallen back to numpy on a host
  without a compiler) hold the GIL, and threads would only add
  contention, so the executor mines those on the calling thread exactly
  as :class:`SerialExecutor` does.

Both preserve job order, so results are identical to serial regardless
of completion order -- the engine's parity guarantee rests on this.
Both honour a batch deadline installed with
:func:`~repro.engine.deadline.set_active_deadline`: it is checked before
each kernel call (serial) or before each per-document task starts and
while results are collected (threads), and an expired run stops with
:class:`~repro.engine.deadline.DeadlineExceeded` instead of mining the
remaining documents.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
from typing import Sequence

from repro.engine.deadline import DeadlineExceeded, active_deadline
from repro.engine.jobs import DocumentResult, MiningJob, run_job, run_job_batch
from repro.kernels import resolved_backend_name

__all__ = ["SerialExecutor", "ThreadExecutor"]


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


class SerialExecutor:
    """Mine every job on the calling thread, in order.

    >>> SerialExecutor().workers
    1
    """

    name = "serial"
    workers = 1

    def run_jobs(
        self, jobs: Sequence[MiningJob], *, batch_docs: int | None = None
    ) -> list[DocumentResult]:
        """Mine every job on this thread, ``batch_docs`` documents per
        kernel call (one per document when ``None``)."""
        return _mine_serially(jobs, batch_docs, active_deadline())

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ThreadExecutor:
    """Mine documents on a persistent pool of threads.

    The pool starts on the first parallel run and lives until
    :meth:`close`, so a service pays thread start-up once.  A run goes
    parallel only when every job's backend resolves to ``native``
    (:meth:`threads`); otherwise it mines on the calling thread in
    ``batch_docs`` chunks.

    >>> ThreadExecutor(workers=2).threads("python")
    1
    """

    name = "thread"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = max(
            1, workers if workers is not None else (os.cpu_count() or 1)
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
