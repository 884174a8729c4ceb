"""Mining jobs: one document, one problem, one shared null model.

The corpus engine decomposes a workload into :class:`MiningJob` values --
each pairs a document with a :class:`JobSpec` (which of the paper's four
problems to run, and its parameters) and the corpus-wide
:class:`~repro.core.model.BernoulliModel`.  Jobs are plain picklable
dataclasses, and :func:`run_job` is the module-level unit of work the
executors dispatch.

The per-document outcome is a :class:`DocumentResult`: the mined
substrings, the scan's work counters, and a per-document p-value that the
engine later replaces (Monte-Carlo calibration) and corrects
(Bonferroni / Benjamini-Hochberg) at the corpus level.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.core.counts import PrefixCountIndex
from repro.core.minlength import find_mss_min_length
from repro.core.model import BernoulliModel
from repro.core.mss import find_mss
from repro.core.results import ScanStats, SignificantSubstring
from repro.core.threshold import find_above_threshold
from repro.core.topt import find_top_t

__all__ = [
    "PROBLEMS",
    "JobSpec",
    "MiningJob",
    "DocumentResult",
    "ordered_scan",
    "run_job",
    "run_job_batch",
]

#: The paper's four problems, by CLI/API name.
PROBLEMS = ("mss", "top", "threshold", "minlength")


@dataclass(frozen=True)
class JobSpec:
    """Which problem to run on each document, with its parameters.

    Parameters
    ----------
    problem:
        One of ``"mss"`` (Problem 1), ``"top"`` (Problem 2),
        ``"threshold"`` (Problem 3), ``"minlength"`` (Problem 4).
    t:
        Top-``t`` size (``"top"`` only).
    threshold:
        The X² cut-off (``"threshold"`` only).
    min_length:
        Inclusive length floor (``"minlength"`` only).
    limit:
        Cap on reported substrings (``"threshold"`` only).
    backend:
        Kernel backend *name* (see :mod:`repro.kernels`); ``None``
        defers to ``REPRO_BACKEND`` / the default.  Kept as a string so
        jobs stay plain, hashable values and every run resolves the
        backend (and any fallback) itself.

    Examples
    --------
    >>> JobSpec().problem
    'mss'
    >>> JobSpec(problem="top", t=3)
    JobSpec(problem='top', t=3)
    >>> JobSpec(problem="episode")
    Traceback (most recent call last):
        ...
    ValueError: unknown problem 'episode'; expected one of ('mss', 'top', 'threshold', 'minlength')
    """

    problem: str = "mss"
    t: int = 10
    threshold: float = 0.0
    min_length: int = 1
    limit: int | None = None
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.problem not in PROBLEMS:
            raise ValueError(
                f"unknown problem {self.problem!r}; expected one of {PROBLEMS}"
            )
        if self.problem == "top" and self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t!r}")
        if self.problem == "threshold" and self.threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold!r}")
        if self.problem == "minlength" and self.min_length < 1:
            raise ValueError(f"min_length must be >= 1, got {self.min_length!r}")
        if (
            self.problem == "threshold"
            and self.limit is not None
            and self.limit <= 0
        ):
            raise ValueError(
                f"limit must be positive when given, got {self.limit!r}"
            )
        if self.backend is not None and not isinstance(self.backend, str):
            raise TypeError(
                f"backend must be a registered backend name (str) or None, "
                f"got {self.backend!r}"
            )

    def mine(
        self, text: Sequence[Hashable], model: BernoulliModel
    ) -> tuple[list[SignificantSubstring], ScanStats, bool]:
        """Run the configured problem on one document.

        Returns ``(substrings desc by X², stats, truncated)``.
        ``truncated`` is True when a threshold scan stopped at ``limit``
        before exhausting the document -- the reported substrings (and
        hence the document's X²max) may then understate the true
        optimum.  A ``minlength`` job on a document shorter than the
        floor returns no substrings: nothing in that document satisfies
        the constraint, which is an answer, not an error.
        """
        if self.problem == "mss":
            result = find_mss(text, model, backend=self.backend)
            return [result.best], result.stats, False
        if self.problem == "top":
            n = len(text)
            t = min(self.t, n * (n + 1) // 2)
            result = find_top_t(text, model, t, backend=self.backend)
            return list(result.substrings), result.stats, False
        if self.problem == "threshold":
            result = find_above_threshold(
                text, model, self.threshold, limit=self.limit,
                backend=self.backend,
            )
            return list(result.substrings), result.stats, result.truncated
        if self.min_length > len(text):
            return [], ScanStats(n=len(text)), False
        result = find_mss_min_length(
            text, model, self.min_length, backend=self.backend
        )
        return [result.best], result.stats, False

    def __repr__(self) -> str:
        parts = [f"problem={self.problem!r}"]
        if self.problem == "top":
            parts.append(f"t={self.t}")
        elif self.problem == "threshold":
            parts.append(f"threshold={self.threshold}")
            if self.limit is not None:
                parts.append(f"limit={self.limit}")
        elif self.problem == "minlength":
            parts.append(f"min_length={self.min_length}")
        if self.backend is not None:
            parts.append(f"backend={self.backend!r}")
        return f"JobSpec({', '.join(parts)})"


@dataclass(frozen=True)
class MiningJob:
    """One unit of corpus work: a document under a shared null model.

    Examples
    --------
    >>> model = BernoulliModel.uniform("ab")
    >>> job = MiningJob("doc-0", "abab" + "aaaa" + "bab", JobSpec(), model)
    >>> run_job(job).best.slice(job.text)
    'aaaa'
    """

    doc_id: str
    text: Sequence[Hashable]
    spec: JobSpec
    model: BernoulliModel

    def __post_init__(self) -> None:
        if len(self.text) == 0:
            raise ValueError(f"document {self.doc_id!r} is empty")


@dataclass
class DocumentResult:
    """Per-document mining outcome, before and after corpus correction.

    ``p_value`` starts as the asymptotic chi-square p-value of the
    document's X²max (the significance of one *fixed* substring) and is
    replaced by the engine with a Monte-Carlo calibrated family-wise
    p-value when calibration is enabled.  ``p_corrected`` and
    ``significant`` are filled in by the engine's multiple-testing
    correction across the whole corpus.
    """

    doc_id: str
    n: int
    substrings: tuple[SignificantSubstring, ...]
    stats: ScanStats
    p_value: float
    p_value_kind: str = "asymptotic"
    p_corrected: float | None = None
    significant: bool | None = None
    truncated: bool = False

    @property
    def best(self) -> SignificantSubstring | None:
        """The document's most significant substring (None when a
        threshold scan matched nothing)."""
        return self.substrings[0] if self.substrings else None

    @property
    def x2_max(self) -> float:
        """The document's maximum *reported* X² (0.0 when nothing matched).

        Exact for mss/top/minlength; a lower bound when ``truncated``.
        """
        return self.substrings[0].chi_square if self.substrings else 0.0

    def payload(self, *, include_timing: bool = True) -> dict:
        """JSON-ready dict; ``include_timing=False`` drops wall-clock noise
        so serial and parallel runs compare byte-identically."""
        data: dict = {
            "doc_id": self.doc_id,
            "n": self.n,
            "x2_max": self.x2_max,
            "p_value": self.p_value,
            "p_value_kind": self.p_value_kind,
            "p_corrected": self.p_corrected,
            "significant": self.significant,
            "truncated": self.truncated,
            "evaluated": self.stats.substrings_evaluated,
            "skipped": self.stats.positions_skipped,
            "substrings": [
                {
                    "start": s.start,
                    "end": s.end,
                    "length": s.length,
                    "chi_square": s.chi_square,
                    "counts": list(s.counts),
                }
                for s in self.substrings
            ],
        }
        if include_timing:
            data["elapsed_seconds"] = self.stats.elapsed_seconds
        return data


def run_job(job: MiningJob) -> DocumentResult:
    """Mine one job: the executors' per-document unit of work."""
    substrings, stats, truncated = job.spec.mine(job.text, job.model)
    best_p = substrings[0].p_value if substrings else 1.0
    return DocumentResult(
        doc_id=job.doc_id,
        n=stats.n,
        substrings=tuple(substrings),
        stats=stats,
        p_value=best_p,
        truncated=truncated,
    )


def ordered_scan(spec, raw, n):
    """Normalise a raw ``mine_batch`` tuple into result order.

    Returns ``(found, start_positions, truncated, evaluated, skipped)``
    where ``found`` lists ``(x2, start, end)`` in the order the ``find_*``
    wrappers report substrings: sentinel entries filtered, sorted by
    ``(-X², start)`` for top-t and threshold scans, the single best pair
    for mss / minlength.  This is the one place that ordering rule
    lives -- :func:`_document_from_scan` builds every batched
    :class:`DocumentResult` from it, which is what keeps the batched
    paths bit-identical to the per-document one.
    """
    problem = spec.problem
    truncated = False
    if problem in ("mss", "minlength"):
        best, (start, end), evaluated, skipped = raw
        found = [(best, start, end)]
        start_positions = n if problem == "mss" else n - spec.min_length + 1
    elif problem == "top":
        heap, evaluated, skipped = raw
        found = [entry for entry in heap if entry[1] >= 0]
        found.sort(key=lambda entry: (-entry[0], entry[1]))
        start_positions = n
    else:  # threshold
        found, _match_count, truncated, evaluated, skipped = raw
        found = sorted(found, key=lambda entry: (-entry[0], entry[1]))
        start_positions = n
    return found, start_positions, truncated, evaluated, skipped


def _index_groups(jobs: Sequence[MiningJob]):
    """Encode and index ``jobs`` for the kernels, one group per (spec, model).

    Returns ``(documents, groups)``.  ``documents`` has one slot per
    job: ``minlength`` documents shorter than the floor already hold
    their empty result (as in :meth:`JobSpec.mine`, that is the answer
    and they never reach the kernel); every other slot is ``None``.
    ``groups`` lists ``(spec, model, pending)`` in first-appearance
    order, ``pending`` being the group's ``(position, job, index)``
    triples in job order.
    """
    documents: list[DocumentResult | None] = [None] * len(jobs)
    groups: dict = {}
    for pos, job in enumerate(jobs):
        spec, model = job.spec, job.model
        codes = model.encode(job.text)
        n = len(codes)
        if spec.problem == "minlength" and spec.min_length > n:
            documents[pos] = DocumentResult(
                doc_id=job.doc_id,
                n=n,
                substrings=(),
                stats=ScanStats(n=n),
                p_value=1.0,
                truncated=False,
            )
            continue
        groups.setdefault((spec, model), []).append(
            (pos, job, PrefixCountIndex(codes, model.k))
        )
    return documents, [
        (spec, model, pending) for (spec, model), pending in groups.items()
    ]


def _document_from_scan(job, index, raw, elapsed) -> DocumentResult:
    """Build a :class:`DocumentResult` from a raw ``mine_batch`` tuple.

    Mirrors exactly what the ``find_*`` wrappers (and hence
    :func:`run_job`) do with the same kernel output: sentinel filtering,
    the ``(-X², start)`` result ordering, counter placement, and the
    document p-value rule.  ``elapsed`` is this document's share of the
    kernel call's wall time.
    """
    model = job.model
    n = index.n
    found, start_positions, truncated, evaluated, skipped = ordered_scan(
        job.spec, raw, n
    )
    substrings = tuple(
        SignificantSubstring(
            start=start,
            end=end,
            chi_square=x2,
            counts=index.counts(start, end),
            alphabet_size=model.k,
        )
        for x2, start, end in found
    )
    stats = ScanStats(
        n=n,
        substrings_evaluated=evaluated,
        positions_skipped=skipped,
        start_positions=start_positions,
        elapsed_seconds=elapsed,
    )
    return DocumentResult(
        doc_id=job.doc_id,
        n=n,
        substrings=substrings,
        stats=stats,
        p_value=substrings[0].p_value if substrings else 1.0,
        truncated=truncated,
    )


def run_job_batch(jobs: Sequence[MiningJob]) -> list[DocumentResult]:
    """Mine a chunk of jobs with one kernel call per (spec, model) group.

    The engine's batched path: jobs sharing a spec and model (the common
    case -- :meth:`CorpusEngine.run_texts` corpora share one of each)
    are encoded, indexed, and handed to the backend's ``mine_batch`` as
    a single call, amortising per-document kernel dispatch.

    The results are identical to ``[run_job(job) for job in jobs]`` --
    scores, intervals, counters and orderings, enforced by the engine
    test-suite -- except for ``stats.elapsed_seconds``, which becomes
    each document's even share of its group's kernel wall time (the
    per-document split of one fused call is unobservable).

    ``minlength`` documents shorter than the floor never reach the
    kernel: as in :meth:`JobSpec.mine`, an empty result is the answer.
    """
    from repro.kernels import get_backend

    documents, groups = _index_groups(jobs)
    for spec, model, pending in groups:
        kernel = get_backend(spec.backend)
        indexes = [index for _, _, index in pending]
        started = time.perf_counter()
        raws = kernel.mine_batch(indexes, model, spec)
        share = (time.perf_counter() - started) / len(pending)
        for (pos, job, index), raw in zip(pending, raws):
            documents[pos] = _document_from_scan(job, index, raw, share)
    return documents
