"""The corpus engine: mine many documents concurrently, report corrected
significance.

This is the throughput layer the paper's motivating applications need:
intrusion detection over many sessions, market monitoring over many
tickers, sports analysis over many series -- all under one shared null
model.  :class:`CorpusEngine` takes a batch of
:class:`~repro.engine.jobs.MiningJob` values and

1. mines them through an executor (:mod:`repro.engine.executors`) --
   by default one thread per usable CPU over the GIL-free native
   kernels, each keeping four document scans in flight on the C lane
   walker, and the calling thread for every other backend;
2. optionally replaces each document's asymptotic p-value with the
   Monte-Carlo family-wise p-value from a shared
   :class:`~repro.engine.calibration.CalibrationCache` (one simulation
   per (model, length-bucket), not per document, scored on the same
   threads);
3. applies a multiple-testing correction (Bonferroni or
   Benjamini-Hochberg) across the corpus and flags the significant
   documents;
4. returns a :class:`CorpusResult`: per-document results in input order
   plus an aggregate :class:`~repro.core.results.ScanStats`.

Any thread count produces the same per-document results as
``ThreadExecutor(1)`` -- mining and calibration are deterministic and
executors preserve input order -- so parallelism is a pure throughput
knob.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from repro.core.model import BernoulliModel
from repro.core.results import ScanStats
from repro.engine.calibration import CalibrationCache
from repro.engine.corrections import CORRECTIONS, adjust_p_values
from repro.engine.executors import ThreadExecutor
from repro.engine.jobs import DocumentResult, JobSpec, MiningJob
from repro.kernels import resolved_backend_name
from repro.obs.metrics import MetricsRegistry, default_registry

__all__ = ["CorpusEngine", "CorpusResult"]


@dataclass
class CorpusResult:
    """Everything a corpus run produced.

    ``documents`` preserves job submission order; ``stats`` merges every
    document's work counters (``stats.elapsed_seconds`` is summed scan
    time across workers, ``elapsed_seconds`` is the run's wall time).
    """

    documents: list[DocumentResult]
    stats: ScanStats
    correction: str
    alpha: float
    calibrated: bool
    executor: str = "thread"
    workers: int = 1
    elapsed_seconds: float = 0.0
    calibration_summary: dict | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    @property
    def significant(self) -> list[DocumentResult]:
        """Documents whose corrected p-value clears ``alpha``."""
        return [doc for doc in self.documents if doc.significant]

    @property
    def n_significant(self) -> int:
        """How many documents survived the correction."""
        return len(self.significant)

    @property
    def docs_per_second(self) -> float:
        """Wall-clock corpus throughput."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return len(self.documents) / self.elapsed_seconds

    def payload(self, *, include_timing: bool = True) -> dict:
        """JSON-ready dict of the whole run (CLI ``--json`` output)."""
        data: dict = {
            "documents": len(self.documents),
            "total_symbols": self.stats.n,
            "evaluated": self.stats.substrings_evaluated,
            "skipped": self.stats.positions_skipped,
            "correction": self.correction,
            "alpha": self.alpha,
            "calibrated": self.calibrated,
            "significant": self.n_significant,
            "executor": self.executor,
            "workers": self.workers,
            "results": [
                doc.payload(include_timing=include_timing)
                for doc in self.documents
            ],
        }
        if self.calibration_summary is not None:
            data["calibration"] = self.calibration_summary
        if include_timing:
            data["elapsed_seconds"] = self.elapsed_seconds
            data["scan_seconds"] = self.stats.elapsed_seconds
        return data

    def __repr__(self) -> str:
        return (
            f"CorpusResult(documents={len(self.documents)}, "
            f"significant={self.n_significant}, correction={self.correction!r}, "
            f"alpha={self.alpha}, executor={self.executor!r})"
        )


class CorpusEngine:
    """Mine a corpus of documents through a pluggable executor.

    Parameters
    ----------
    executor:
        A :class:`~repro.engine.executors.ThreadExecutor`, or any object
        with its ``run_jobs(jobs)``, ``threads(backend)`` and
        ``map(fn, items)``.  Defaults to ``ThreadExecutor()``: one
        thread per usable CPU on native kernels, which mine the
        documents and score cold calibrations on the same pool.  Each
        thread runs the C lane walker, four mss/minlength scans (or
        calibration trials) in flight, claimed from a cursor all the
        threads share.  ``ThreadExecutor(1)`` runs the lanes on the
        calling thread and never starts a pool.  Every other run --
        numpy, python, or a single document -- mines on the calling
        thread, one kernel ``mine_batch`` call per window of documents.
    calibration:
        A :class:`CalibrationCache` to turn each document's X²max into a
        Monte-Carlo family-wise p-value.  ``None`` keeps the asymptotic
        chi-square p-value of the best substring (fast, but overstates
        significance -- see :mod:`repro.analysis.calibration`).
    correction:
        Default multiple-testing correction: ``"bonferroni"``, ``"bh"``
        or ``"none"``.
    alpha:
        Default corpus-level significance level.
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` mine/finalize
        timings, document counts and X² evaluation counts are reported
        into.  ``None`` (the default) uses the process-wide
        :func:`~repro.obs.metrics.default_registry`; a service injects
        its own so ``/metrics`` reflects only that service's work.

    Examples
    --------
    >>> model = BernoulliModel.uniform("ab")
    >>> texts = ["ab" * 30, "ab" * 10 + "a" * 14 + "ba" * 8, "ba" * 30]
    >>> engine = CorpusEngine()
    >>> result = engine.run_texts(texts, model)
    >>> len(result.documents)
    3
    >>> [round(d.x2_max, 1) for d in result.documents][1] > 10
    True
    >>> result.documents[0].doc_id
    'doc-0000'
    """

    def __init__(
        self,
        executor=None,
        calibration: CalibrationCache | None = None,
        correction: str = "bh",
        alpha: float = 0.05,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if correction not in CORRECTIONS:
            raise ValueError(
                f"unknown correction {correction!r}; expected one of {CORRECTIONS}"
            )
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
        self.executor = executor if executor is not None else ThreadExecutor()
        self.calibration = calibration
        self.correction = correction
        self.alpha = alpha
        self.metrics = metrics if metrics is not None else default_registry()

    def run(
        self,
        jobs: Iterable[MiningJob],
        *,
        correction: str | None = None,
        alpha: float | None = None,
    ) -> CorpusResult:
        """Mine every job; correct p-values across the corpus.

        Results come back in job order regardless of executor.  Per-call
        ``correction``/``alpha`` override the engine defaults.

        ``run`` is :meth:`mine_documents` followed by :meth:`finalize`;
        callers that need to mine several request's jobs through one
        executor pass (the service micro-batcher,
        :mod:`repro.service.batcher`) call the two halves themselves.
        """
        job_list = list(jobs)
        correction, alpha = self._resolve_correction(correction, alpha)
        started = time.perf_counter()
        documents = self.mine_documents(job_list)
        result = self.finalize(
            job_list, documents, correction=correction, alpha=alpha
        )
        # Stamp after finalize so calibration (potentially a cold
        # Monte-Carlo simulation) stays inside the reported wall time,
        # exactly as before the mine/finalize split.
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def mine_documents(self, jobs: Sequence[MiningJob]) -> list[DocumentResult]:
        """The dispatch half of :meth:`run`: mine only, no corrections.

        Returns per-document results in job order with *asymptotic*
        p-values -- calibration and multiple-testing correction are
        :meth:`finalize`'s job.  Per-document results are deterministic
        and independent of how jobs are grouped, so a caller may mine
        the concatenation of several requests' jobs in one call and
        :meth:`finalize` each request's slice separately with results
        bit-identical to running each request alone (enforced by
        ``tests/service/test_service.py``).
        """
        job_list = list(jobs)
        if not job_list:
            raise ValueError("no jobs to run")
        started = time.perf_counter()
        try:
            documents = self.executor.run_jobs(job_list)
        finally:
            self.metrics.histogram(
                "repro_engine_mine_seconds",
                "Wall seconds per mine_documents pass",
            ).observe(time.perf_counter() - started)
            self.metrics.counter(
                "repro_engine_docs_mined_total",
                "Documents mined by the engine",
            ).inc(len(job_list))
        self._count_evaluations(job_list, documents)
        return documents

    def _count_evaluations(self, jobs, documents) -> None:
        """Add a pass's X² evaluations to the per-backend counter."""
        names = {
            backend: resolved_backend_name(backend)
            for backend in {job.spec.backend for job in jobs}
        }
        evaluated: dict[str, int] = {}
        for job, doc in zip(jobs, documents):
            name = names[job.spec.backend]
            evaluated[name] = (
                evaluated.get(name, 0) + doc.stats.substrings_evaluated
            )
        counter = self.evaluation_counter()
        for name, count in evaluated.items():
            counter.labels(backend=name).inc(count)

    def evaluation_counter(self):
        """The ``repro_kernel_x2_evaluations_total{backend}`` family:
        X² evaluations (the paper's cost measure) per resolved backend."""
        return self.metrics.counter(
            "repro_kernel_x2_evaluations_total",
            "X2 evaluations by the scan kernels, by resolved backend",
            labelnames=("backend",),
        )

    def finalize(
        self,
        jobs: Sequence[MiningJob],
        documents: Sequence[DocumentResult],
        *,
        correction: str | None = None,
        alpha: float | None = None,
        elapsed: float = 0.0,
    ) -> CorpusResult:
        """The significance half of :meth:`run`: calibrate and correct.

        Replaces each document's asymptotic p-value with the calibrated
        family-wise one (when the engine has a
        :class:`~repro.engine.calibration.CalibrationCache`), applies
        the multiple-testing correction *across exactly the documents
        given*, and assembles the :class:`CorpusResult`.  The
        ``documents`` are mutated in place (``p_value`` /
        ``p_corrected`` / ``significant``), mirroring what :meth:`run`
        does; ``jobs`` must be the matching job list (calibration needs
        each document's model).  ``elapsed`` is the wall time reported
        on the result.  A cold calibration key is scored on the
        executor's pool, so call this from outside that pool's tasks
        (the caller's thread, or the service's mine thread).
        """
        finalize_started = time.perf_counter()
        job_list = list(jobs)
        documents = list(documents)
        if len(job_list) != len(documents):
            raise ValueError(
                f"got {len(documents)} documents for {len(job_list)} jobs"
            )
        correction, alpha = self._resolve_correction(correction, alpha)
        if self.calibration is not None:
            for job, doc in zip(job_list, documents):
                doc.p_value = self.calibration.p_value(
                    job.model, doc.n, doc.x2_max, executor=self.executor
                )
                doc.p_value_kind = "calibrated"

        adjusted = adjust_p_values([doc.p_value for doc in documents], correction)
        for doc, p_adj in zip(documents, adjusted):
            doc.p_corrected = p_adj
            doc.significant = p_adj <= alpha

        result = CorpusResult(
            documents=documents,
            stats=ScanStats.merged(doc.stats for doc in documents),
            correction=correction,
            alpha=alpha,
            calibrated=self.calibration is not None,
            executor=getattr(self.executor, "name", type(self.executor).__name__),
            workers=getattr(self.executor, "workers", 1),
            elapsed_seconds=elapsed,
            calibration_summary=(
                self.calibration.summary() if self.calibration is not None else None
            ),
        )
        self.metrics.histogram(
            "repro_engine_finalize_seconds",
            "Wall seconds per finalize pass (calibration + correction)",
        ).observe(time.perf_counter() - finalize_started)
        return result

    def _resolve_correction(
        self, correction: str | None, alpha: float | None
    ) -> tuple[str, float]:
        """Apply engine defaults and validate a correction/alpha pair."""
        correction = self.correction if correction is None else correction
        alpha = self.alpha if alpha is None else alpha
        if correction not in CORRECTIONS:
            raise ValueError(
                f"unknown correction {correction!r}; expected one of {CORRECTIONS}"
            )
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
        return correction, alpha

    def close(self) -> None:
        """Release executor resources (thread pools); idempotent.

        A :class:`~repro.engine.executors.ThreadExecutor` keeps its
        threads alive across runs -- this is how a long-running service
        lets them go.  Executors without a ``close`` make this a no-op,
        and the engine stays usable either way (the pool restarts
        lazily on the next run).
        """
        close = getattr(self.executor, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "CorpusEngine":
        """Context-manager entry: returns the engine itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: :meth:`close` the engine."""
        self.close()

    def run_texts(
        self,
        texts: Sequence[Sequence[Hashable]],
        model: BernoulliModel,
        spec: JobSpec | None = None,
        *,
        ids: Sequence[str] | None = None,
        correction: str | None = None,
        alpha: float | None = None,
    ) -> CorpusResult:
        """Convenience wrapper: one shared model + spec over raw texts.

        ``ids`` defaults to ``doc-0000, doc-0001, ...`` in input order.
        """
        spec = spec if spec is not None else JobSpec()
        if ids is None:
            ids = [f"doc-{i:04d}" for i in range(len(texts))]
        elif len(ids) != len(texts):
            raise ValueError(
                f"got {len(ids)} ids for {len(texts)} texts"
            )
        jobs = [
            MiningJob(doc_id, text, spec, model)
            for doc_id, text in zip(ids, texts)
        ]
        return self.run(jobs, correction=correction, alpha=alpha)

    def __repr__(self) -> str:
        return (
            f"CorpusEngine(executor={self.executor!r}, "
            f"calibration={self.calibration!r}, "
            f"correction={self.correction!r}, alpha={self.alpha})"
        )
