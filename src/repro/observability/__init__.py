"""Observability for the Nebula pipeline: tracing and metrics.

Two cooperating pieces, none needing external dependencies:

* :mod:`~repro.observability.tracing` — nested spans over the Figure 16
  stages, exported per-trace to an in-memory ring buffer and/or a JSONL
  file; :data:`NOOP_TRACER` keeps the default hot path allocation-free;
* :mod:`~repro.observability.metrics` — counters, gauges, and
  fixed-bucket histograms in a process-wide registry
  (:func:`get_metrics`), covering ingestion, query generation per type,
  SQL execution, scoring, shared-execution savings, and every
  resilience event (retries, degradations, dead letters).

See ``docs/observability.md`` for the span taxonomy and metric catalog,
and how each metric maps back to the paper's figures.
"""

from .events import EVENT_KINDS, EventLog, read_jsonl_events
from .exporter import (
    EXPOSITION_CONTENT_TYPE,
    ExpositionError,
    MetricFamily,
    TelemetryServer,
    parse_exposition,
    render_health_gauges,
    render_metrics,
    render_snapshot,
    scrape,
    validate_exposition,
)
from .metrics import (
    COUNT_BUCKETS,
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    encode_key,
    get_metrics,
    non_zero_counters,
    set_metrics,
)
from .quantiles import (
    SERVICE_PERCENTILES,
    PhaseQuantiles,
    StreamingQuantiles,
    merged_percentiles,
)
from .stages import CANONICAL_STAGES, is_canonical_stage
from .tracing import (
    NOOP_TRACER,
    SpanLike,
    TracerLike,
    JsonlExporter,
    NoopTracer,
    RingBufferExporter,
    Span,
    Tracer,
    format_trace,
    iter_spans,
    read_jsonl_traces,
    span_names,
    validate_trace_file,
)

__all__ = [
    # stages
    "CANONICAL_STAGES",
    "is_canonical_stage",
    # tracing
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "Span",
    "SpanLike",
    "TracerLike",
    "RingBufferExporter",
    "JsonlExporter",
    "format_trace",
    "read_jsonl_traces",
    "span_names",
    "validate_trace_file",
    # metrics
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "get_metrics",
    "set_metrics",
    "encode_key",
    "non_zero_counters",
    "TIME_BUCKETS",
    "COUNT_BUCKETS",
    # quantiles
    "StreamingQuantiles",
    "PhaseQuantiles",
    "SERVICE_PERCENTILES",
    "merged_percentiles",
    # events
    "EventLog",
    "EVENT_KINDS",
    "read_jsonl_events",
    # exporter
    "TelemetryServer",
    "render_metrics",
    "render_snapshot",
    "render_health_gauges",
    "parse_exposition",
    "validate_exposition",
    "scrape",
    "MetricFamily",
    "ExpositionError",
    "EXPOSITION_CONTENT_TYPE",
    "iter_spans",
]
