"""Observability: metrics, spans, and profile exports.

The cost-accounting layer under the whole DCatch pipeline.  Three parts:

* ``MetricsRegistry`` — thread-safe counters / gauges / histograms with
  labeled children; a module-level *active* registry that defaults to a
  zero-cost no-op (``NULL_REGISTRY``);
* ``SpanTracer`` / ``span`` — nested wall+CPU timing of pipeline
  regions, exportable as JSON and Chrome trace-event files;
* exporters — Prometheus text exposition, JSON snapshots, Chrome
  ``chrome://tracing`` traces, and a human-readable span table.

Instrumented code does::

    from repro import obs

    obs.counter("rpc_calls_total").labels(method=name).inc()
    with obs.span("hb.build"):
        ...

and pays nothing unless a registry/tracer is active.  The pipeline
activates a fresh pair for every run (or reuses the caller's active
ones) and snapshots them onto ``PipelineResult.metrics`` /
``PipelineResult.profile``.

See ``docs/observability.md`` for the full API and export formats.
"""

from __future__ import annotations

from repro.obs.export import (
    profile_to_json,
    render_prometheus,
    render_span_table,
    spans_to_chrome,
    write_chrome_trace,
    write_json,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    get_registry,
    metrics_enabled,
    use_registry,
)
from repro.obs.spans import (
    NULL_TRACER,
    SpanTracer,
    get_tracer,
    span,
    tracing_enabled,
    use_tracer,
)

__all__ = [
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "SpanTracer",
    "DEFAULT_BUCKETS",
    "counter",
    "gauge",
    "histogram",
    "get_registry",
    "use_registry",
    "get_tracer",
    "use_tracer",
    "tracing_enabled",
    "span",
    "enabled",
    "render_prometheus",
    "render_span_table",
    "profile_to_json",
    "spans_to_chrome",
    "write_chrome_trace",
    "write_json",
]


def counter(name: str, help: str = "") -> Counter:
    """Get-or-create a counter on the *active* registry."""
    return get_registry().counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    return get_registry().gauge(name, help)


def histogram(name: str, help: str = "", buckets=DEFAULT_BUCKETS) -> Histogram:
    return get_registry().histogram(name, help, buckets=buckets)


def enabled() -> bool:
    """True when a real (non-null) registry is active."""
    return metrics_enabled()
