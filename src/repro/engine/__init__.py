"""Parallel corpus mining: many documents, one null model, corrected
significance.

The paper's single-string miners answer "is *this* string anomalous?";
its motivating applications (intrusion detection, market monitoring,
sports and stock analysis) ask that question of an entire *corpus* at
once.  This subsystem is that layer:

* :mod:`repro.engine.jobs` -- :class:`JobSpec` / :class:`MiningJob`
  pair any of the four paper problems with a document and a shared
  :class:`~repro.core.model.BernoulliModel`; :func:`run_job_batch`
  mines a window of documents through one kernel ``mine_batch`` call
  per (spec, model) group, and :func:`run_job` is the per-document
  reference it equals.
* :mod:`repro.engine.executors` -- how a job list is mined:
  :class:`ThreadExecutor`, a persistent thread pool.  On the GIL-free
  native kernels each thread runs the C lane walker, which keeps four
  mss/minlength scans in flight and claims the next document, longest
  first, from a cursor every thread shares (top-t and threshold claim
  one document per scan); ``ThreadExecutor(1)`` runs the lanes on the
  calling thread.  Every other backend, and a single document, mines
  on the calling thread through :func:`run_job_batch`, 32 documents per
  call.
  It is order-preserving and each lane runs the single-document scan's
  exact operations, so results are identical at any thread count.
  ``CorpusEngine()`` and ``repro-mss batch`` default to one thread per
  usable CPU; ``serve --workers N`` defaults to one.
* :mod:`repro.engine.deadline` -- request :class:`Deadline` objects
  tunnelled to executors via a contextvar: an expired batch claims no
  further document (and makes no further kernel call) and raises
  :class:`DeadlineExceeded`.
* :mod:`repro.engine.calibration` -- :class:`CalibrationCache` memoizes
  the Monte-Carlo X²max null distribution per (model, length-bucket) so
  the whole corpus shares a handful of simulations, scored on the
  engine's threads.
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
from repro.engine.executors import ThreadExecutor
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
    "ThreadExecutor",
    "CalibrationCache",
    "length_bucket",
    "model_fingerprint",
    "CORRECTIONS",
    "bonferroni",
    "benjamini_hochberg",
    "adjust_p_values",
]
