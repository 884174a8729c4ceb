"""Observability for the mining stack: metrics, tracing, logs, SLOs.

Six stdlib-only modules, threaded through every layer of the serving
system (router → HTTP front-end → micro-batcher → corpus engine →
mining threads → kernel backends):

* :mod:`repro.obs.metrics` -- a thread-safe registry of counters,
  gauges and histograms; one :meth:`~repro.obs.metrics.MetricsRegistry.
  snapshot` feeds ``GET /stats`` and one :meth:`~repro.obs.metrics.
  MetricsRegistry.render_prometheus` feeds ``GET /metrics``, so both
  surfaces report the same numbers from one source of truth; the
  mining threads record into it directly.
* :mod:`repro.obs.tracing` -- per-request
  :class:`~repro.obs.tracing.Trace` span trees (parse → queue-wait →
  batch-mine → kernel → finalize → serialize), *distributed* across
  processes: the router injects ``X-Trace-Id``/``X-Parent-Span`` on
  proxied requests, the service adopts inbound ids, and
  ``GET /trace/<id>`` returns the assembled tree.  Bounded recent/slow rings
  (:class:`~repro.obs.tracing.TraceRecorder`) keep traces inspectable
  after the fact.
* :mod:`repro.obs.tracesink` -- head-based sampling
  (:class:`~repro.obs.tracesink.TraceSampler`, deterministic on the
  trace id so router and shards agree) and the JSON-lines
  :class:`~repro.obs.tracesink.TraceSink` behind ``--trace-log``.
* :mod:`repro.obs.profile` -- a continuous
  :class:`~repro.obs.profile.SamplingProfiler` (daemon thread walking
  ``sys._current_frames()`` ~100 Hz, measured self-overhead) serving
  collapsed stacks at ``GET /debug/profile`` and attaching per-phase
  sample counts to slow traces.
* :mod:`repro.obs.slo` -- latency/error objectives over sliding
  windows (:class:`~repro.obs.slo.SloTracker`, ``--slo
  p99:250ms,errors:0.1%``), multi-window ``repro_slo_burn_rate``
  gauges, and the enforced fast-burn condition that flips
  ``GET /healthz`` to ``degraded``.
* :mod:`repro.obs.log` -- JSON-lines structured logging (access log,
  backend fallback events, calibration cache events), selectable
  via ``repro-mss serve --log-format json|text --log-level``.

See ``docs/ARCHITECTURE.md`` §6 for the metric catalog, the distributed
trace lifecycle, and the log-event reference.
"""

from repro.obs.log import StructuredLogger, configure, get_logger
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
)
from repro.obs.profile import SamplingProfiler
from repro.obs.slo import (
    DEFAULT_SLO_SPEC,
    Objective,
    SloTracker,
    parse_slo_spec,
)
from repro.obs.tracesink import TraceSampler, TraceSink
from repro.obs.tracing import (
    Span,
    Trace,
    TraceRecorder,
    active_trace,
    new_trace_id,
    valid_trace_id,
)

__all__ = [
    "DEFAULT_SLO_SPEC",
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Objective",
    "SamplingProfiler",
    "SloTracker",
    "Span",
    "StructuredLogger",
    "Trace",
    "TraceRecorder",
    "TraceSampler",
    "TraceSink",
    "active_trace",
    "configure",
    "default_registry",
    "get_logger",
    "new_trace_id",
    "parse_slo_spec",
    "valid_trace_id",
]
