"""The executor: how the corpus engine mines a job list.

:class:`ThreadExecutor` honours one contract,
``run_jobs(jobs)`` returning one
:class:`~repro.engine.jobs.DocumentResult` per job.  A run of several
documents on the compiled ``native`` kernels goes to the lane walker:
each of the executor's threads makes one ``mine_batch`` call per
(spec, model) group, and every call claims documents from the group's
shared :class:`~repro.kernels.native_backend.ClaimCursor`.  mss and
minlength keep four scans in flight per call, each lane claiming the
next document, longest first, as it frees up; top-t and threshold
claim one document per scan.  A thread that finds one group drained
moves on to the next, so no thread idles while a group still has
unclaimed documents.  A run of more than ``_WINDOW_DOCS`` documents per
thread is indexed and mined one such window at a time.  ctypes
releases the GIL and the C source has no mutable globals, so the
threads mine in parallel inside one process.
``ThreadExecutor(1)`` runs the same lanes on the calling thread and
never starts a pool.  Jobs on any other backend (numpy, python, or
``native`` fallen back to numpy on a host without a compiler) hold the
GIL, so the executor mines those, and a single document on any
backend, on the calling thread: one ``mine_batch`` call per (spec,
model) group for each window of :data:`_SERIAL_WINDOW_DOCS` documents.
With no argument the executor takes one thread per usable CPU (its
affinity mask where the OS has one).

Results keep job order and the lanes return every document's
single-scan bits, so they are identical to serial whatever the thread
count -- the engine's parity guarantee rests on this.  A batch deadline
installed with :func:`~repro.engine.deadline.set_active_deadline` is
checked before each kernel call on the calling thread and before every
document claim on the lanes; once it passes no further document is
claimed, the documents in flight finish, and the run raises
:class:`~repro.engine.deadline.DeadlineExceeded`.

The same pool scores Monte-Carlo calibration:
:class:`~repro.engine.corpus.CorpusEngine` hands its executor to the
calibration cache, and the native ``simulate_x2max`` runs each chunk's
lanes on :meth:`ThreadExecutor.map`, so an engine runs one pool, not
two.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
import time
from typing import Callable, Iterable, Sequence

from repro.engine.deadline import DeadlineExceeded, active_deadline
from repro.engine.jobs import (
    DocumentResult,
    MiningJob,
    _document_from_scan,
    _index_groups,
    run_job_batch,
)
from repro.kernels import get_backend, resolved_backend_name
from repro.kernels.native_backend import ClaimCursor

__all__ = ["ThreadExecutor"]

#: Documents indexed per mining thread at a time on the lanes: four
#: lanes, about four documents each.  A longer native run mines its jobs
#: in windows of ``workers * _WINDOW_DOCS``, so the prefix matrices held
#: at once (8 (k + 1) bytes per symbol) cover one window, not the run.
_WINDOW_DOCS = 16

#: Documents per :func:`~repro.engine.jobs.run_job_batch` call on the
#: calling thread (numpy, python, a native single document, or native
#: fallen back).  One call per window amortises kernel dispatch -- the
#: numpy wavefront mines a window 1.3-2.4x faster than one document at a
#: time -- and the window bounds how much of a long run's wavefront is
#: held at once.
_SERIAL_WINDOW_DOCS = 32


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


def _mine_serially(jobs: Sequence[MiningJob], deadline) -> list[DocumentResult]:
    """Mine ``jobs`` on the calling thread, in order, one
    :func:`~repro.engine.jobs.run_job_batch` call per window of
    :data:`_SERIAL_WINDOW_DOCS` documents.  An expired ``deadline``
    stops the run before its next window."""
    documents: list[DocumentResult] = []
    for lo in range(0, len(jobs), _SERIAL_WINDOW_DOCS):
        _check_deadline(deadline, len(jobs) - lo)
        documents.extend(run_job_batch(jobs[lo : lo + _SERIAL_WINDOW_DOCS]))
    return documents


class ThreadExecutor:
    """Mine documents on a persistent pool of threads.

    ``workers`` defaults to one per usable CPU.  The pool starts on the
    first parallel run and lives until :meth:`close`, so a service pays
    thread start-up once.  A run of several documents whose backends
    all resolve to ``native`` mines on the lane walker of every worker
    thread (:meth:`threads`); ``ThreadExecutor(1)`` runs those lanes on
    the calling thread.  Any other run mines on the calling thread in
    windows of :data:`_SERIAL_WINDOW_DOCS` documents.

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

        Native mining and calibration pass one item per thread, each
        running its lanes over a shared claim cursor.  A single item, or
        a one-worker executor, runs on the calling thread.  Never call
        it from inside a pool task: the task would wait on work queued
        behind itself.
        """
        items = list(items)
        if self.workers == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(fn, items))

    def run_jobs(self, jobs: Sequence[MiningJob]) -> list[DocumentResult]:
        """Mine every job; results in job order, identical to serial.

        Several documents on native kernels run on the lanes of every
        thread, ``workers * _WINDOW_DOCS`` at a time; anything else
        mines on the calling thread, ``_SERIAL_WINDOW_DOCS`` at a time.
        """
        deadline = active_deadline()
        backends = {job.spec.backend for job in jobs}
        if len(jobs) > 1 and all(
            resolved_backend_name(backend) == "native" for backend in backends
        ):
            return self._mine_lanes(jobs, deadline)
        return _mine_serially(jobs, deadline)

    def _mine_lanes(self, jobs, deadline) -> list[DocumentResult]:
        """Mine native jobs on the lanes, one window of jobs at a time."""
        window = self.workers * _WINDOW_DOCS
        documents: list[DocumentResult] = []
        for lo in range(0, len(jobs), window):
            _check_deadline(deadline, len(jobs) - lo)
            mined = self._mine_window(jobs[lo : lo + window], deadline)
            if None in mined:
                unmined = len(jobs) - lo - len(mined) + mined.count(None)
                raise DeadlineExceeded(
                    f"batch deadline passed with {unmined} document(s) unmined"
                )
            documents.extend(mined)
        return documents

    def _mine_window(self, jobs, deadline) -> list[DocumentResult | None]:
        """Mine native jobs on up to :attr:`workers` threads sharing one
        claim cursor per (spec, model) group; ``None`` where the
        deadline stopped the claims."""
        documents, groups = _index_groups(jobs)
        cursors = [ClaimCursor(deadline) for _ in groups]

        def drain(_) -> list:
            mined = []
            for (spec, model, pending), cursor in zip(groups, cursors):
                started = time.perf_counter()
                raws = get_backend(spec.backend).mine_batch(
                    [index for _, _, index in pending], model, spec,
                    cursor=cursor,
                )
                mined.append((pending, raws, time.perf_counter() - started))
            return mined

        threads = min(self.workers, len(jobs))
        for mined in self.map(drain, range(threads)):
            for pending, raws, elapsed in mined:
                claimed = [
                    (item, raw) for item, raw in zip(pending, raws)
                    if raw is not None
                ]
                for (pos, job, index), raw in claimed:
                    documents[pos] = _document_from_scan(
                        job, index, raw, elapsed / len(claimed)
                    )
        return documents

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
