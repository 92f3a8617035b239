"""repro.telemetry -- spans, counters and per-request metrics.

The observability backbone of the reproduction: hierarchical spans with
monotonic timings over every protocol entry point, typed counters,
gauges and histograms for the crypto hot paths and the serving runtime
(Paillier ops, DGK comparisons, precompute pool hits/misses, wire bytes
by codec tag, transport retries, serve queue depth/wait),
a thread/process-safe registry with snapshot/merge so fleet shard
processes and served requests report back, and
JSON/text exporters behind ``--metrics`` and ``python -m repro
metrics``.

Disabled by default and built to stay off the hot path: recording
helpers check one module flag and return, and :func:`span` hands out a
shared no-op context manager. Enable with
``telemetry.configure(True)`` (the CLI does this for ``--metrics``).

Usage::

    import repro.telemetry as telemetry

    telemetry.configure(True, reset=True)
    with telemetry.span("pipeline.classify", row=3):
        label = pipeline.classify(row, ctx=ctx)
    telemetry.write_metrics("metrics.json", telemetry.snapshot())

See ``docs/OBSERVABILITY.md`` for the span taxonomy and the counter
catalogue.
"""

from repro.telemetry.export import (
    histogram_quantiles,
    load_metrics,
    render_text,
    span_wire_bytes,
    to_json,
    validate_metrics,
    wire_bytes_total,
    write_metrics,
)
from repro.telemetry.registry import (
    SCHEMA,
    MetricsRegistry,
    SpanRecord,
    configure,
    count,
    current_span,
    enabled,
    gauge,
    get_registry,
    observe,
    record_wire,
    reset,
    snapshot,
    span,
)

__all__ = [
    "SCHEMA",
    "MetricsRegistry",
    "SpanRecord",
    "configure",
    "count",
    "current_span",
    "enabled",
    "gauge",
    "get_registry",
    "histogram_quantiles",
    "load_metrics",
    "observe",
    "record_wire",
    "render_text",
    "reset",
    "snapshot",
    "span",
    "span_wire_bytes",
    "to_json",
    "validate_metrics",
    "wire_bytes_total",
    "write_metrics",
]
