"""Service-level objectives: sliding windows, burn rates, fast-burn alarms.

PR 7 gave the stack health *mechanics* (breaker state, ``/healthz``);
this module gives it health *meaning*: user-visible objectives of the
form "99% of requests under 250 ms, error ratio under 0.1%"
(``--slo p99:250ms,errors:0.1%``), tracked over sliding windows the way
the SRE workbook prescribes.

The unit of alerting is the **burn rate**: the fraction of requests
violating an objective, divided by the objective's error budget (a
``p99`` latency target allows 1% violations, an ``errors:0.1%`` target
allows 0.1% failures).  Burn 1.0 means the budget is being consumed
exactly as provisioned; burn 14.4 over an hour of a 30-day budget eats
2% of the month in that hour.  :class:`SloTracker` computes the burn
per objective over *multiple* windows (fast + slow) and:

* publishes them as ``repro_slo_burn_rate{objective,window}`` gauges,
  refreshed at every ``/metrics`` scrape (present from the first scrape
  on, so ``tools/check_metrics.py`` can require the family);
* when ``enforce`` is on, reports a ``degraded`` verdict once *every*
  window burns past ``fast_burn_threshold`` (the multi-window AND
  suppresses blips) -- the service reports that verdict in its own
  ``GET /healthz`` fields (``slo_fast_burn``), leaving ``status`` at
  ``ok`` so the router keeps a shard that still answers.

Errors mean HTTP 5xx: a 4xx is the client's bill, not the service's
budget.  Latency observations include every terminal status, because a
504 that took 30 s is precisely the experience the objective describes.
"""

from __future__ import annotations

import re
import threading
from collections import deque
from dataclasses import dataclass
from time import monotonic

__all__ = [
    "DEFAULT_SLO_SPEC",
    "Objective",
    "SloTracker",
    "parse_slo_spec",
]

#: Objectives tracked when the operator passes no ``--slo``: gauges are
#: always rendered (so dashboards and the metrics validator see the
#: family), but enforcement stays off unless explicitly requested.
DEFAULT_SLO_SPEC = "p99:250ms,errors:1%"

#: Sliding windows the burn rate is computed over: (label, seconds).
#: The first (shortest) is the "fast" window that drives enforcement.
DEFAULT_WINDOWS: tuple[tuple[str, float], ...] = (("1m", 60.0), ("10m", 600.0))

#: Page-worthy burn (SRE workbook's 1-hour/14.4x fast-burn pair).
DEFAULT_FAST_BURN = 14.4

_LATENCY_RE = re.compile(
    r"^p(?P<q>\d{1,2}(?:\.\d+)?):(?P<v>\d+(?:\.\d+)?)(?P<u>ms|s)$"
)
_ERRORS_RE = re.compile(r"^errors:(?P<v>\d+(?:\.\d+)?)(?P<pct>%?)$")


@dataclass(frozen=True)
class Objective:
    """One parsed objective: what counts as bad, and the budget for it.

    ``budget`` is the allowed bad-request fraction (``1 - quantile``
    for latency objectives, the target ratio for error objectives);
    the burn rate is ``bad_fraction / budget``.
    """

    label: str
    kind: str  # "latency" | "errors"
    budget: float
    threshold_seconds: float = 0.0  # latency objectives only

    def bad(self, seconds: float, is_error: bool) -> bool:
        """Whether one request observation violates this objective."""
        if self.kind == "latency":
            return seconds > self.threshold_seconds
        return is_error


def parse_slo_spec(spec: str) -> tuple[Objective, ...]:
    """Parse ``--slo`` syntax into :class:`Objective` tuples.

    Comma-separated terms; each is either ``pNN:<value>ms|s`` (latency
    quantile target) or ``errors:<ratio>[%]``.

    >>> [o.label for o in parse_slo_spec("p99:250ms,errors:0.1%")]
    ['p99:250ms', 'errors:0.1%']
    >>> parse_slo_spec("p99:250ms")[0].budget
    0.01
    """
    objectives: list[Objective] = []
    seen: set[str] = set()
    for raw in spec.split(","):
        term = raw.strip()
        if not term:
            continue
        match = _LATENCY_RE.match(term)
        if match:
            quantile = float(match.group("q")) / 100.0
            if not 0.0 < quantile < 1.0:
                raise ValueError(f"latency quantile out of range in {term!r}")
            value = float(match.group("v"))
            seconds = value / 1000.0 if match.group("u") == "ms" else value
            if seconds <= 0.0:
                raise ValueError(f"latency target must be > 0 in {term!r}")
            objective = Objective(
                label=term,
                kind="latency",
                budget=round(1.0 - quantile, 10),
                threshold_seconds=seconds,
            )
        else:
            match = _ERRORS_RE.match(term)
            if match is None:
                raise ValueError(
                    f"unrecognized SLO term {term!r} "
                    "(expected pNN:<value>ms|s or errors:<ratio>[%])"
                )
            ratio = float(match.group("v"))
            if match.group("pct"):
                ratio /= 100.0
            if not 0.0 < ratio <= 1.0:
                raise ValueError(f"error budget out of (0, 1] in {term!r}")
            objective = Objective(label=term, kind="errors", budget=ratio)
        if objective.label in seen:
            raise ValueError(f"duplicate SLO term {term!r}")
        seen.add(objective.label)
        objectives.append(objective)
    if not objectives:
        raise ValueError(f"empty SLO spec {spec!r}")
    return tuple(objectives)


class SloTracker:
    """Sliding-window burn-rate tracking over request observations.

    ``observe()`` is called once per terminal ``/mine`` response with
    the HTTP status and the request's wall seconds; everything else is
    derived.  ``enforce=False`` (the default tracker every service
    carries) computes and publishes burn rates but never degrades
    health; ``--slo`` builds one with ``enforce=True``.

    The clock is injectable for tests.

    Examples
    --------
    >>> tracker = SloTracker(parse_slo_spec("errors:1%"), enforce=True)
    >>> for _ in range(20): tracker.observe(500, 0.001)
    >>> tracker.degraded() is not None
    True
    """

    #: Ring bound on retained events; at 10k req/s this still spans the
    #: default fast window several times over.
    MAX_EVENTS = 65_536

    def __init__(
        self,
        objectives: tuple[Objective, ...] | None = None,
        *,
        windows: tuple[tuple[str, float], ...] = DEFAULT_WINDOWS,
        fast_burn_threshold: float = DEFAULT_FAST_BURN,
        min_events: int = 10,
        enforce: bool = False,
        clock=monotonic,
    ) -> None:
        self.objectives = tuple(
            objectives if objectives is not None
            else parse_slo_spec(DEFAULT_SLO_SPEC)
        )
        if not self.objectives:
            raise ValueError("SloTracker needs at least one objective")
        self.windows = tuple((str(label), float(secs)) for label, secs in windows)
        if not self.windows:
            raise ValueError("SloTracker needs at least one window")
        self.fast_burn_threshold = float(fast_burn_threshold)
        self.min_events = int(min_events)
        self.enforce = bool(enforce)
        self._clock = clock
        self._events: deque[tuple[float, float, bool]] = deque(
            maxlen=self.MAX_EVENTS
        )
        self._observed = 0
        self._lock = threading.Lock()

    def observe(self, status: int, seconds: float) -> None:
        """Record one terminal request: HTTP ``status``, wall ``seconds``."""
        event = (self._clock(), float(seconds), int(status) >= 500)
        with self._lock:
            self._events.append(event)
            self._observed += 1

    def _window_events(
        self, now: float, window_seconds: float
    ) -> list[tuple[float, float, bool]]:
        cutoff = now - window_seconds
        with self._lock:
            return [e for e in self._events if e[0] >= cutoff]

    def burn_rates(self) -> dict[str, dict[str, dict]]:
        """Burn per objective per window.

        ``{objective_label: {window_label: {"burn", "bad", "events"}}}``;
        an empty window burns 0.0 (no data is not an outage).
        """
        now = self._clock()
        per_window = {
            label: self._window_events(now, seconds)
            for label, seconds in self.windows
        }
        out: dict[str, dict[str, dict]] = {}
        for objective in self.objectives:
            rows: dict[str, dict] = {}
            for label, _ in self.windows:
                events = per_window[label]
                bad = sum(
                    1 for _, secs, err in events if objective.bad(secs, err)
                )
                total = len(events)
                ratio = (bad / total) if total else 0.0
                rows[label] = {
                    "burn": round(ratio / objective.budget, 4) if total else 0.0,
                    "bad": bad,
                    "events": total,
                }
            out[objective.label] = rows
        return out

    def degraded(self) -> str | None:
        """The fast-burn reason, or ``None`` while within budget.

        Fires only with ``enforce`` on, at least ``min_events`` in the
        fast window, and the burn past ``fast_burn_threshold`` in
        *every* configured window (the multi-window AND keeps one blip
        from ejecting a shard).
        """
        if not self.enforce:
            return None
        fast_label = self.windows[0][0]
        for objective_label, rows in self.burn_rates().items():
            fast = rows[fast_label]
            if fast["events"] < self.min_events:
                continue
            if all(
                row["burn"] >= self.fast_burn_threshold
                for row in rows.values()
            ):
                return (
                    f"slo fast burn: {objective_label} burning "
                    f"{fast['burn']:.1f}x budget over {fast_label} "
                    f"({fast['bad']}/{fast['events']} bad)"
                )
        return None

    def register(self, registry) -> None:
        """Create the gauge families (zeroed series) in ``registry``.

        Called once at service construction so every ``/metrics`` scrape
        -- including the very first -- renders the ``repro_slo_*``
        families that ``tools/check_metrics.py`` requires.
        """
        burn = registry.gauge(
            "repro_slo_burn_rate",
            "Error-budget burn rate per objective per sliding window "
            "(1.0 = consuming budget exactly as provisioned)",
            labelnames=("objective", "window"),
        )
        for objective in self.objectives:
            for label, _ in self.windows:
                burn.labels(objective=objective.label, window=label).set(0.0)
        registry.gauge(
            "repro_slo_fast_burn_degraded",
            "1 while the enforced fast-burn condition holds (healthz "
            "reports slo_fast_burn), else 0",
        ).set(0.0)

    def refresh(self, registry) -> None:
        """Recompute and publish the burn gauges (called at scrape time)."""
        burn = registry.gauge("repro_slo_burn_rate")
        for objective_label, rows in self.burn_rates().items():
            for window_label, row in rows.items():
                burn.labels(
                    objective=objective_label, window=window_label
                ).set(row["burn"])
        registry.gauge("repro_slo_fast_burn_degraded").set(
            1.0 if self.degraded() is not None else 0.0
        )

    def summary(self) -> dict:
        """JSON-ready status block for ``GET /stats``."""
        return {
            "objectives": [
                {
                    "objective": o.label,
                    "kind": o.kind,
                    "budget": o.budget,
                }
                for o in self.objectives
            ],
            "windows": {label: secs for label, secs in self.windows},
            "enforce": self.enforce,
            "fast_burn_threshold": self.fast_burn_threshold,
            "observed": self._observed,
            "burn_rates": self.burn_rates(),
            "degraded_reason": self.degraded(),
        }

    def __repr__(self) -> str:
        labels = ",".join(o.label for o in self.objectives)
        return (
            f"SloTracker(objectives=[{labels}], enforce={self.enforce}, "
            f"observed={self._observed})"
        )
