"""repro.telemetry — opt-in metrics, tracing and profiling.

Zero-dependency observability layer threaded through the kernel,
executors, resilience, service and search layers, and the one sink of
their events (:meth:`Telemetry.emit`, :data:`EVENTS`).  Everything is
opt-in: without a :class:`Telemetry` object the execution paths are
untouched (no wrapping, a handful of ``is None`` checks), and with one
enabled the probes only read clocks and write into their own registries
— results stay bit-identical (pinned by the golden-run suite).

Quick start::

    from repro.telemetry import Telemetry, TelemetryConfig

    telemetry = Telemetry(TelemetryConfig(trace=True))
    results = campaign.run(telemetry=telemetry)
    print(telemetry.summary())
    telemetry.write_prometheus("metrics.prom")
    telemetry.write_trace_jsonl("trace.jsonl")   # load in ui.perfetto.dev
"""

from repro.telemetry.collector import EVENTS, Telemetry, TelemetryConfig
from repro.telemetry.export import (
    PROMETHEUS_NAMESPACE,
    prometheus_name,
    prometheus_text,
    summary,
    write_chrome_trace,
    write_json_snapshot,
    write_prometheus,
    write_trace_jsonl,
)
from repro.telemetry.metrics import (
    NS_BUCKETS,
    SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.probe import STAGE_METRIC, ProbedPipeline
from repro.telemetry.tracing import DEFAULT_CAPACITY, Span, SpanHandle, Tracer

__all__ = [
    "EVENTS",
    "Telemetry",
    "TelemetryConfig",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "NS_BUCKETS",
    "SECONDS_BUCKETS",
    "Tracer",
    "Span",
    "SpanHandle",
    "DEFAULT_CAPACITY",
    "ProbedPipeline",
    "STAGE_METRIC",
    "PROMETHEUS_NAMESPACE",
    "prometheus_name",
    "prometheus_text",
    "summary",
    "write_prometheus",
    "write_json_snapshot",
    "write_trace_jsonl",
    "write_chrome_trace",
]
