"""Monte-Carlo calibration of the MSS score.

The chi-square p-value attached to a :class:`SignificantSubstring` is
the significance of *that particular substring* had it been chosen in
advance.  The MSS is not chosen in advance -- it is the argmax over all
O(n²) substrings -- so judging a string's overall randomness by
``chi2_sf(X²max)`` massively overstates significance (the classic
look-elsewhere effect).  The paper's cryptology section works around
this by comparing X²max against its empirical ``~2 ln n`` growth law;
this module does the job properly:

1. simulate many null strings of the same length and model,
2. mine each for its X²max,
3. use the empirical distribution of those maxima as the null
   distribution of the observed X²max.

The resulting :class:`MSSNullDistribution` gives empirical p-values,
critical values, and the summary statistics that make Table 2-style
audits quantitative.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from repro._validation import ensure_positive_int
from repro.core.model import BernoulliModel
from repro.generators.base import resolve_rng
from repro.kernels import get_backend

__all__ = [
    "MSSNullDistribution",
    "mss_null_distribution",
    "mss_p_value",
    "mss_critical_value",
]


@dataclass(frozen=True)
class MSSNullDistribution:
    """Empirical null distribution of X²max for (n, model).

    ``samples`` are the sorted X²max values of the simulated null
    strings.  With ``t`` trials, p-values are resolved no finer than
    ``1 / (t + 1)`` (the standard add-one Monte-Carlo estimate).
    """

    n: int
    alphabet_size: int
    samples: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.samples) < 10:
            raise ValueError(
                f"need at least 10 Monte-Carlo samples, got {len(self.samples)}"
            )
        object.__setattr__(self, "samples", tuple(sorted(self.samples)))

    @property
    def trials(self) -> int:
        """Number of Monte-Carlo trials behind the distribution."""
        return len(self.samples)

    @property
    def mean(self) -> float:
        """Mean simulated X²max (compare against ``2 ln n``)."""
        return sum(self.samples) / len(self.samples)

    @property
    def two_ln_n(self) -> float:
        """The paper's asymptotic benchmark for this length."""
        return 2.0 * math.log(self.n)

    def p_value(self, observed_x2max: float) -> float:
        """Empirical ``Pr[X²max >= observed]`` under the null.

        Add-one estimator: ``(#{samples >= observed} + 1) / (t + 1)`` --
        never returns exactly 0, as is proper for a Monte-Carlo p-value.
        """
        position = bisect.bisect_left(self.samples, observed_x2max)
        exceeding = len(self.samples) - position
        return (exceeding + 1) / (len(self.samples) + 1)

    def critical_value(self, alpha: float) -> float:
        """Empirical threshold z with ``Pr[X²max > z] ~ alpha``."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
        index = min(
            len(self.samples) - 1,
            max(0, math.ceil((1.0 - alpha) * len(self.samples)) - 1),
        )
        return self.samples[index]

    def __repr__(self) -> str:
        return (
            f"MSSNullDistribution(n={self.n}, k={self.alphabet_size}, "
            f"trials={self.trials}, mean={self.mean:.2f}, "
            f"2ln n={self.two_ln_n:.2f})"
        )


def mss_null_distribution(
    model: BernoulliModel,
    n: int,
    trials: int = 100,
    seed: int | np.random.Generator | None = 0,
    *,
    backend=None,
) -> MSSNullDistribution:
    """Simulate the null distribution of X²max for strings of length ``n``.

    Cost: ``trials`` MSS scans of length-``n`` null strings, i.e.
    O(trials * k * n^1.5) expected -- the pruned scanner is what makes
    this calibration affordable at all.  The simulation runs through the
    selected kernel backend (:mod:`repro.kernels`): the ``"numpy"``
    backend scans all trials as one batched wavefront, the default
    ``"native"`` backend scans them in C, and both are several times
    faster than the ``"python"`` reference, with bit-identical samples
    (all consume the RNG stream the same way).

    >>> model = BernoulliModel.uniform("ab")
    >>> dist = mss_null_distribution(model, 500, trials=20, seed=1)
    >>> dist.trials
    20
    >>> 5.0 < dist.mean < 25.0     # near 2 ln 500 ~ 12.4
    True
    """
    ensure_positive_int(n, "n")
    ensure_positive_int(trials, "trials")
    rng = resolve_rng(seed)
    kernel = get_backend(backend)
    samples = kernel.simulate_x2max(model, n, trials, rng)
    return MSSNullDistribution(
        n=n, alphabet_size=model.k, samples=tuple(samples)
    )


def mss_p_value(
    observed_x2max: float,
    model: BernoulliModel,
    n: int,
    trials: int = 100,
    seed: int | np.random.Generator | None = 0,
    *,
    backend=None,
) -> float:
    """One-call empirical p-value of an observed X²max.

    Convenience wrapper: simulates the null distribution and evaluates
    it at ``observed_x2max``.  Reuse :func:`mss_null_distribution` when
    scoring several strings of the same shape.

    >>> model = BernoulliModel.uniform("ab")
    >>> p_extreme = mss_p_value(80.0, model, 300, trials=30, seed=2)
    >>> p_extreme <= 1 / 30
    True
    """
    distribution = mss_null_distribution(
        model, n, trials=trials, seed=seed, backend=backend
    )
    return distribution.p_value(observed_x2max)


def mss_critical_value(
    alpha: float,
    model: BernoulliModel,
    n: int,
    trials: int = 100,
    seed: int | np.random.Generator | None = 0,
    *,
    backend=None,
) -> float:
    """Empirical rejection threshold for X²max at family level ``alpha``.

    This is the value to feed to the threshold variant (Problem 3) when
    the goal is "everything more significant than chance at level
    alpha, accounting for the search over all substrings".
    """
    distribution = mss_null_distribution(
        model, n, trials=trials, seed=seed, backend=backend
    )
    return distribution.critical_value(alpha)
