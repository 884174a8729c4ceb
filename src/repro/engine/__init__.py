"""Parallel corpus mining: many documents, one null model, corrected
significance.

The paper's single-string miners answer "is *this* string anomalous?";
its motivating applications (intrusion detection, market monitoring,
sports and stock analysis) ask that question of an entire *corpus* at
once.  This subsystem is that layer:

* :mod:`repro.engine.jobs` -- :class:`JobSpec` / :class:`MiningJob`
  pair any of the four paper problems with a document and a shared
  :class:`~repro.core.model.BernoulliModel`; :func:`run_job` is the
  picklable per-document unit of work and :func:`run_job_batch` the
  batched one (a chunk of documents through a single kernel
  ``mine_batch`` call -- see ``CorpusEngine(batch_docs=...)``).
* :mod:`repro.engine.executors` -- how a job list is mined:
  :class:`SerialExecutor` on the calling thread, or
  :class:`ThreadExecutor`, a persistent thread pool that mines one
  document per task on the GIL-free native kernels (and on one thread
  for every other backend).  Both are order-preserving (parallel
  results are identical to serial); ``repro-mss batch --workers N`` and
  ``serve --workers N`` use the thread pool.
* :mod:`repro.engine.deadline` -- request :class:`Deadline` objects
  tunnelled to executors via a contextvar: an expired batch stops
  before its next kernel call (or per-document task) with
  :class:`DeadlineExceeded`.
* :mod:`repro.engine.calibration` -- :class:`CalibrationCache` memoizes
  the Monte-Carlo X²max null distribution per (model, length-bucket) so
  the whole corpus shares a handful of simulations.
* :mod:`repro.engine.corrections` -- Bonferroni and Benjamini-Hochberg
  adjusted p-values across the corpus.
* :mod:`repro.engine.corpus` -- :class:`CorpusEngine.run(jobs)` ties it
  together and returns a :class:`CorpusResult` (per-document results in
  input order plus aggregate :class:`~repro.core.results.ScanStats`).

The CLI front-end is ``repro-mss batch`` (see :mod:`repro.cli`).
"""

from repro.engine.calibration import (
    CalibrationCache,
    length_bucket,
    model_fingerprint,
)
from repro.engine.corpus import CorpusEngine, CorpusResult
from repro.engine.deadline import (
    Deadline,
    DeadlineExceeded,
    active_deadline,
    reset_active_deadline,
    set_active_deadline,
)
from repro.engine.corrections import (
    CORRECTIONS,
    adjust_p_values,
    benjamini_hochberg,
    bonferroni,
)
from repro.engine.executors import SerialExecutor, ThreadExecutor
from repro.engine.jobs import (
    PROBLEMS,
    DocumentResult,
    JobSpec,
    MiningJob,
    ordered_scan,
    run_job,
    run_job_batch,
)

__all__ = [
    "CorpusEngine",
    "CorpusResult",
    "Deadline",
    "DeadlineExceeded",
    "active_deadline",
    "set_active_deadline",
    "reset_active_deadline",
    "MiningJob",
    "JobSpec",
    "DocumentResult",
    "ordered_scan",
    "run_job",
    "run_job_batch",
    "PROBLEMS",
    "SerialExecutor",
    "ThreadExecutor",
    "CalibrationCache",
    "length_bucket",
    "model_fingerprint",
    "CORRECTIONS",
    "bonferroni",
    "benjamini_hochberg",
    "adjust_p_values",
]
