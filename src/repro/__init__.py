"""repro: mining statistically significant substrings with the chi-square statistic.

A full reproduction of Sachan & Bhattacharya, *Mining Statistically
Significant Substrings using the Chi-Square Statistic*, VLDB 2012.

Quickstart
----------
>>> from repro import BernoulliModel, find_mss
>>> model = BernoulliModel.uniform("ab")
>>> text = "ab" * 20 + "aaaaaaaaaa" + "ba" * 20
>>> result = find_mss(text, model)
>>> result.best.slice(text)
'aaaaaaaaaa'
>>> result.best.p_value < 0.01
True

The public API re-exported here covers the paper's four problems
(:func:`find_mss`, :func:`find_top_t`, :func:`find_above_threshold`,
:func:`find_mss_min_length`), the null model and statistic, and the
p-value machinery.  Baselines, generators, datasets and extensions live in
their own subpackages:

* :mod:`repro.baselines` -- trivial / blocked / heap / ARLM / AGMM.
* :mod:`repro.stats` -- chi-square distribution, LR statistic, exact
  p-values, concentration bounds.
* :mod:`repro.generators` -- null / geometric / zipf / Markov /
  correlated / planted-anomaly string generators.
* :mod:`repro.datasets` -- synthetic sports-rivalry and securities data.
* :mod:`repro.strings` -- suffix tree, suffix automaton, run-length blocks.
* :mod:`repro.extensions` -- 2-D grids, Markov nulls, windows, graphs.
* :mod:`repro.engine` -- parallel corpus mining (many documents per
  kernel call, on every usable CPU), cached calibration and
  multiple-testing correction (:class:`CorpusEngine`).
* :mod:`repro.service` -- the async mining service over the engine
  (``repro-mss serve``): request micro-batching, a persistent
  mining thread pool, deterministic backpressure, and a
  disk-backed calibration cache for zero-trial warm restarts.
* :mod:`repro.kernels` -- pluggable scan/calibration kernel backends
  (compiled ``"native"`` default, vectorised ``"numpy"`` -- which the
  default falls back to, bit for bit, on a host with no C compiler --
  and the ``"python"`` reference; selectable per call, via
  ``REPRO_BACKEND``, or ``--backend`` on the CLI).  The
  full backend contract lives in that module's docstring and in
  ``docs/ARCHITECTURE.md``.
"""

from repro.core import (
    BernoulliModel,
    ChiSquareScorer,
    MSSResult,
    PrefixCountIndex,
    ScanStats,
    SignificantSubstring,
    ThresholdResult,
    TopTResult,
    chi_square,
    chi_square_from_counts,
    find_above_threshold,
    find_mss,
    find_mss_min_length,
    find_top_t,
)
from repro.kernels import available_backends, get_backend
from repro.stats import chi2_critical_value, chi2_sf, p_value

__version__ = "1.1.0"

# The corpus engine is re-exported lazily (PEP 562): it pulls in
# concurrent.futures and the calibration machinery, which single-string
# entry points should not pay for at import time.
_ENGINE_EXPORTS = frozenset(
    {
        "CorpusEngine",
        "CorpusResult",
        "MiningJob",
        "JobSpec",
        "DocumentResult",
        "CalibrationCache",
    }
)


def __getattr__(name: str):
    if name in _ENGINE_EXPORTS:
        from repro import engine

        value = getattr(engine, name)
        globals()[name] = value  # cache: next access skips __getattr__
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BernoulliModel",
    "ChiSquareScorer",
    "PrefixCountIndex",
    "chi_square",
    "chi_square_from_counts",
    "find_mss",
    "find_top_t",
    "find_above_threshold",
    "find_mss_min_length",
    "MSSResult",
    "TopTResult",
    "ThresholdResult",
    "ScanStats",
    "SignificantSubstring",
    "CorpusEngine",
    "CorpusResult",
    "MiningJob",
    "JobSpec",
    "DocumentResult",
    "CalibrationCache",
    "chi2_critical_value",
    "chi2_sf",
    "p_value",
    "get_backend",
    "available_backends",
    "__version__",
]
