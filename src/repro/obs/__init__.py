"""Observability for the serving stack: tracing, metrics, query telemetry.

Three pieces, designed to be free when off and cheap when on:

* :mod:`repro.obs.trace` — ``trace_span``-based per-request span trees with
  monotonic timings, carried with the logical call via ``contextvars``;
  a strict no-op fast path when ``REPRO_TRACE`` is unset/0 (the default).
* :mod:`repro.obs.registry` — the process-wide :data:`REGISTRY` of
  counters, gauges, and log-bucketed latency histograms under the
  ``repro_<layer>_<name>`` naming scheme, exported through ``GET /metrics``
  (JSON + Prometheus text) and engine ``stats()``.
* :mod:`repro.obs.telemetry` — a persisted, size-capped, rotating
  JSON-lines query log per store (``<store>/telemetry/``): one record per
  explain/batch query with the executed scan's shard skip counts and rows,
  cache outcomes, admission queue wait, and span-tree timings.
  ``repro obs summary|top|slow`` aggregates it.
"""

from repro.obs import trace
from repro.obs.registry import (REGISTRY, Counter, Gauge, LogHistogram,
                                MetricsRegistry, unified_engine_metrics)
from repro.obs.telemetry import (TelemetryLog, TelemetryReader,
                                 read_records, telemetry_enabled)
from repro.obs.trace import (current_root, current_span, current_trace_id,
                             new_trace, new_trace_id, set_current_attr,
                             set_root_attr, span_dict, trace_span, tracing)

__all__ = [
    "trace",
    "REGISTRY",
    "Counter",
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
    "unified_engine_metrics",
    "TelemetryLog",
    "TelemetryReader",
    "read_records",
    "telemetry_enabled",
    "current_root",
    "current_span",
    "current_trace_id",
    "new_trace",
    "new_trace_id",
    "set_current_attr",
    "set_root_attr",
    "span_dict",
    "trace_span",
    "tracing",
]
