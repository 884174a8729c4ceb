"""A stdlib-only metrics registry: counters, gauges, histograms.

This is the numeric half of :mod:`repro.obs` -- the single source of
truth every layer of the serving stack (HTTP front-end, micro-batcher,
corpus engine, mining threads, calibration caches) reports its
counters and timings into.  The same registry backs both introspection
surfaces of :class:`~repro.service.app.MiningService`:

* ``GET /stats``  -- :meth:`MetricsRegistry.snapshot`, a JSON-ready
  dict (components read their own counters back out of the registry, so
  ``/stats`` can never drift from ``/metrics``);
* ``GET /metrics`` -- :meth:`MetricsRegistry.render_prometheus`, the
  Prometheus text exposition format (version 0.0.4), scrapeable by any
  standard collector and validated by ``tools/check_metrics.py``.

Design constraints, in order:

1. **No new dependencies.**  Pure stdlib (``threading`` locks around
   plain floats/lists); no ``prometheus_client``.
2. **Cheap on the hot path.**  One lock acquire + float add per event.
   Instrumentation granularity is per *request* or per *batch*, never
   per document or per scan row, so the measured service throughput
   overhead stays under the noise floor (``benchmarks/bench_service.py``
   asserts the service's own histogram agrees with client-side timing).
3. **One process, one registry.**  Mining threads record into the
   service's registry directly; across processes the router merges
   each shard's exposition instead of sharing state.

Histograms use fixed log-spaced buckets (:data:`LATENCY_BUCKETS`,
powers of two from 0.25 ms to ~2 min) so service latencies from a
sub-millisecond cache hit to a cold Monte-Carlo calibration land in
distinct buckets.  Each histogram additionally keeps a bounded ring of
recent raw observations, giving :meth:`Histogram.quantile` *exact*
p50/p99 over the recent window -- that is what ``/stats`` reports and
what ``bench_service.py`` cross-checks against client-side measurement.
"""

from __future__ import annotations

import bisect
import collections
import math
import threading

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
]

#: Fixed log-spaced latency buckets in seconds: 0.25 ms doubling up to
#: ~131 s.  Shared by every latency histogram so per-stage timings are
#: comparable bucket-for-bucket.
LATENCY_BUCKETS: tuple[float, ...] = tuple(0.00025 * 2**i for i in range(20))

#: Raw observations each histogram retains for exact recent-window
#: quantiles (p50/p99 in ``/stats``); bounded so memory stays O(1).
_RING_SIZE = 512

_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
)


def _check_name(name: str) -> str:
    """Validate a Prometheus-legal metric/label name."""
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _escape_label(value: str) -> str:
    """Escape a label value for the text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Render a sample value (Prometheus accepts repr-style floats)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(value)


class _Metric:
    """Common machinery of one metric family (name, help, labelled children).

    A family with no declared ``labelnames`` has exactly one anonymous
    child and its update methods apply to it directly; with labelnames,
    :meth:`labels` returns (creating on first use) the child for one
    label-value combination.  All mutation is lock-guarded and safe to
    call from any thread.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...] = ()):
        self.name = _check_name(name)
        self.help = help
        self.labelnames = tuple(_check_name(n) for n in labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], _Metric] = {}
        if self.labelnames:
            self._child_of = None
        else:
            self._child_of = self  # anonymous single child: itself

    def labels(self, **labelvalues: str):
        """The child metric for one label-value combination.

        >>> from repro.obs.metrics import Counter
        >>> c = Counter("demo_total", "demo", labelnames=("kind",))
        >>> c.labels(kind="x").inc(); c.labels(kind="x").value
        1.0
        """
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name} takes labels {self.labelnames}, "
                f"got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = type(self)(self.name, self.help, **self._child_kwargs())
                self._children[key] = child
            return child

    def _child_kwargs(self) -> dict:
        return {}

    def _samples(self):
        """Yield ``(label_values, child)`` pairs in insertion order."""
        if not self.labelnames:
            yield (), self
            return
        with self._lock:
            items = list(self._children.items())
        yield from items

    def _label_str(self, values: tuple[str, ...], extra: str = "") -> str:
        parts = [
            f'{name}="{_escape_label(value)}"'
            for name, value in zip(self.labelnames, values)
        ]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""


class Counter(_Metric):
    """A monotonically increasing total (events, documents, errors).

    Examples
    --------
    >>> c = Counter("requests_total", "requests served")
    >>> c.inc(); c.inc(2); c.value
    3.0
    """

    kind = "counter"

    def __init__(self, name, help, labelnames=()):
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount!r}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current total."""
        with self._lock:
            return self._value

    def snapshot_value(self):
        """JSON-ready value for :meth:`MetricsRegistry.snapshot`."""
        return self.value

    def render(self, lines: list[str]) -> None:
        """Append this family's exposition sample lines to ``lines``."""
        for values, child in self._samples():
            lines.append(
                f"{self.name}{self._label_str(values)} "
                f"{_format_value(child.value)}"
            )


class Gauge(_Metric):
    """A value that goes up and down (queue depth, uptime).

    Examples
    --------
    >>> g = Gauge("queue_depth", "queued documents")
    >>> g.set(7); g.value
    7.0
    """

    kind = "gauge"

    def __init__(self, name, help, labelnames=()):
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current value."""
        with self._lock:
            return self._value

    def snapshot_value(self):
        """JSON-ready value for :meth:`MetricsRegistry.snapshot`."""
        return self.value

    def render(self, lines: list[str]) -> None:
        """Append this family's exposition sample lines to ``lines``."""
        for values, child in self._samples():
            lines.append(
                f"{self.name}{self._label_str(values)} "
                f"{_format_value(child.value)}"
            )


class Histogram(_Metric):
    """A distribution over fixed buckets plus a recent-sample ring.

    The buckets feed the Prometheus exposition (cumulative
    ``_bucket{le=...}`` counts, ``_sum``, ``_count``); the bounded ring
    of raw observations feeds exact recent-window quantiles for
    ``/stats`` (:meth:`quantile`).

    Examples
    --------
    >>> h = Histogram("latency_seconds", "request latency")
    >>> h.observe(0.004); h.observe(0.010); h.count
    2
    >>> round(h.quantile(0.5), 3)
    0.01
    """

    kind = "histogram"

    def __init__(self, name, help, labelnames=(), buckets=LATENCY_BUCKETS):
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.buckets) + 1)  # final = +Inf
        self._sum = 0.0
        self._count = 0
        self._ring: collections.deque[float] = collections.deque(
            maxlen=_RING_SIZE
        )

    def _child_kwargs(self) -> dict:
        return {"buckets": self.buckets}

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            self._ring.append(value)

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        """Number of observations."""
        with self._lock:
            return self._count

    def quantile(self, q: float) -> float:
        """Exact quantile over the recent-sample ring (0.0 when empty).

        Recent-window, not lifetime: the ring keeps the last
        ``512`` observations, which is what a latency dashboard wants
        and what ``bench_service.py`` compares against client timing.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        with self._lock:
            window = sorted(self._ring)
        if not window:
            return 0.0
        return window[min(len(window) - 1, int(q * len(window)))]

    def snapshot_value(self):
        """JSON-ready dict for :meth:`MetricsRegistry.snapshot`."""
        with self._lock:
            counts = list(self._counts)
            total, total_sum = self._count, self._sum
        return {
            "count": total,
            "sum": total_sum,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
            "buckets": {
                _format_value(bound): count
                for bound, count in zip(
                    (*self.buckets, math.inf), counts
                )
                if count
            },
        }

    def render(self, lines: list[str]) -> None:
        """Append cumulative ``_bucket``/``_sum``/``_count`` lines."""
        for values, child in self._samples():
            with child._lock:
                counts = list(child._counts)
                total, total_sum = child._count, child._sum
            cumulative = 0
            for bound, count in zip((*child.buckets, math.inf), counts):
                cumulative += count
                extra = f'le="{_format_value(bound)}"'
                lines.append(
                    f"{self.name}_bucket{self._label_str(values, extra)} "
                    f"{cumulative}"
                )
            lines.append(
                f"{self.name}_sum{self._label_str(values)} "
                f"{_format_value(total_sum)}"
            )
            lines.append(f"{self.name}_count{self._label_str(values)} {total}")


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A process-local set of metric families, one per name.

    ``counter()`` / ``gauge()`` / ``histogram()`` are get-or-create: the
    first call fixes the family's help text, label names (and buckets);
    later calls return the same object, so independent modules can
    reference a shared metric by name alone.  Asking for an existing
    name with a different *type* is a hard error -- that is always a
    bug, never a feature.

    Each :class:`~repro.service.app.MiningService` owns a private
    registry (so two services in one process -- common in tests -- never
    mix numbers); library components default to the process-wide
    :func:`default_registry`.

    Examples
    --------
    >>> registry = MetricsRegistry()
    >>> registry.counter("jobs_total", "jobs run").inc(3)
    >>> registry.snapshot()["jobs_total"]["value"]
    3.0
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name, help, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames=()) -> Counter:
        """Get or create the :class:`Counter` called ``name``."""
        return self._get_or_create(Counter, name, help, labelnames=labelnames)

    def gauge(self, name: str, help: str = "", labelnames=()) -> Gauge:
        """Get or create the :class:`Gauge` called ``name``."""
        return self._get_or_create(Gauge, name, help, labelnames=labelnames)

    def histogram(
        self, name: str, help: str = "", labelnames=(),
        buckets=LATENCY_BUCKETS,
    ) -> Histogram:
        """Get or create the :class:`Histogram` called ``name``."""
        return self._get_or_create(
            Histogram, name, help, labelnames=labelnames, buckets=buckets
        )

    def get(self, name: str) -> _Metric | None:
        """The family called ``name``, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def snapshot(self) -> dict:
        """JSON-ready view of every family (the ``/stats`` source).

        Counters and gauges map to ``{"type", "value"}``; histograms to
        ``{"type", "count", "sum", "p50", "p99", "buckets"}`` (per
        label combination when labelled).
        """
        with self._lock:
            families = list(self._metrics.values())
        out: dict = {}
        for family in families:
            if family.labelnames:
                values = [
                    {
                        "labels": dict(zip(family.labelnames, key)),
                        **(
                            child.snapshot_value()
                            if isinstance(child, Histogram)
                            else {"value": child.snapshot_value()}
                        ),
                    }
                    for key, child in family._samples()
                ]
                out[family.name] = {"type": family.kind, "series": values}
            elif isinstance(family, Histogram):
                out[family.name] = {
                    "type": family.kind, **family.snapshot_value()
                }
            else:
                out[family.name] = {
                    "type": family.kind, "value": family.snapshot_value()
                }
        return out

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4.

        One ``# HELP`` / ``# TYPE`` pair per family followed by its
        samples; ends with a trailing newline as the format requires.
        Validated by ``tools/check_metrics.py`` (CI scrapes the smoke
        service run through it).
        """
        with self._lock:
            families = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: list[str] = []
        for family in families:
            help_text = family.help.replace("\\", "\\\\").replace("\n", "\\n")
            lines.append(f"# HELP {family.name} {help_text}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            family.render(lines)
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        with self._lock:
            return f"MetricsRegistry(families={len(self._metrics)})"


_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide default registry.

    Library components (engine, executors, calibration caches) report
    here unless a service hands them its own registry -- so `repro-mss
    batch` and ad-hoc engine use are observable without any wiring.
    """
    return _DEFAULT
