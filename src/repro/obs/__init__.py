"""Observability: request-lifecycle tracing, unified metrics, decomposition.

The cross-cutting layer the serving stack reports through:

* :mod:`repro.obs.trace` — a slotted, allocation-light :class:`Tracer`
  recording spans/instants on the integer-ps sim timeline, exportable as
  deterministic Chrome trace-event JSON (Perfetto-loadable);
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, counters/gauges/
  histograms over :mod:`repro.sim.stats` with a plain-data
  :class:`MetricsSnapshot` that merges deterministically across fleet
  node reports;
* :mod:`repro.obs.decompose` — per-request stage attribution
  (queue/program/retune/service/blackout);
* :mod:`repro.obs.monitor` — streaming telemetry: tumbling/sliding
  window reads (goodput, shed rate, p99-over-window, queue slope)
  emitted as a plain-data :class:`TelemetryStream` that merges across
  fleet node reports like :class:`MetricsSnapshot`;
* :mod:`repro.obs.alerts` — declarative :class:`AlertRule`\\ s
  (threshold / multi-window SLO burn-rate / EWMA z-score) evaluated
  on-stream by an :class:`AlertEngine` with a typed alert log, trace
  export and ground-truth scoring (:func:`score_alerts`);
* :mod:`repro.obs.experiments` — the ``latency_decomposition`` cell
  (``python -m repro trace`` is :func:`repro.api.runner.trace_experiment`);
* :mod:`repro.obs.alerting` — the ``alerting`` detection-quality
  experiment and the ``python -m repro alerts`` driver.

The serving scheduler emits each request-lifecycle event once to its
ordered :class:`LifecycleSubscriber`\\ s (telemetry, SLO accounting,
:class:`RequestTrace`); observing never changes a result (pinned in
``tests/test_obs.py``, ``tests/test_alerts.py`` and
``tests/test_lifecycle.py``).  See ``docs/observability.md``.
"""

from repro.obs.alerts import (DEFAULT_RULES, AlertEngine, AlertEvent,
                              AlertRule, score_alerts)
from repro.obs.decompose import (ALL_TENANTS, STAGES, decompose_rows,
                                 request_stages)
from repro.obs.metrics import (GAUGE_MERGE_MODES, Gauge, MetricsRegistry,
                               MetricsSnapshot)
from repro.obs.monitor import TelemetryMonitor, TelemetryStream
from repro.obs.trace import (Instant, LifecycleSubscriber, RequestTrace, Span,
                             Tracer)
from repro.sim.stats import cdf_points

__all__ = [
    "ALL_TENANTS",
    "DEFAULT_RULES",
    "GAUGE_MERGE_MODES",
    "STAGES",
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "Gauge",
    "Instant",
    "LifecycleSubscriber",
    "MetricsRegistry",
    "MetricsSnapshot",
    "RequestTrace",
    "Span",
    "TelemetryMonitor",
    "TelemetryStream",
    "Tracer",
    "cdf_points",
    "decompose_rows",
    "request_stages",
    "score_alerts",
]
