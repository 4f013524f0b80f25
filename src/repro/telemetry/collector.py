"""The user-facing telemetry handle threaded through the execution paths.

A :class:`Telemetry` object bundles one :class:`MetricsRegistry`, an
optional :class:`Tracer`, and the :class:`TelemetryConfig` knobs, and is
what ``Campaign.run(telemetry=...)``, ``run_simulation``,
``SearchDriver``, the batch runner and the task loop accept.

Aggregation model
-----------------

Every dispatch goes through the one task loop
(:class:`repro.resilience.SupervisedExecutor`), and every chunk of it
records into a **chunk-local** registry: in-process chunks and pool
workers alike, each run wrapped with a sampled
:class:`~repro.telemetry.probe.PipelineProbe`.  A chunk returns its
snapshot with its results; the parent merges the snapshots of the
attempts it *accepts* **in chunk order**, so a retried chunk counts
once and the deterministic view (outside ``perf.*`` and the loop's
``supervisor.*`` report counters, merged last) is identical whatever
the worker count, batch width, chunking, completion order or recovery
the supervisor performed (pinned by the cross-mode tests).  In-process chunks record spans into
the parent's tracer; pool workers trace nothing (their clocks are not
aligned with the parent's timebase).

The config is a small frozen dataclass so it pickles cheaply to workers;
the registry pickles as its snapshot.
"""

from dataclasses import dataclass
from time import perf_counter_ns
from typing import TYPE_CHECKING, Optional, Union

from repro.telemetry.export import (
    prometheus_text,
    summary,
    write_chrome_trace,
    write_json_snapshot,
    write_prometheus,
    write_trace_jsonl,
)
from repro.telemetry.metrics import SECONDS_BUCKETS, MetricsRegistry
from repro.telemetry.probe import PipelineProbe
from repro.telemetry.tracing import DEFAULT_CAPACITY, SpanHandle, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.metrics import RunResult


class _NullSpan:
    """No-op span used when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def annotate(self, **args) -> None:
        return None


_NULL_SPAN = _NullSpan()


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs of the telemetry layer (picklable; shipped to pool workers).

    Attributes:
        sample_every: Probe sampling interval — every N-th control cycle
            pays the per-stage timing; 1 = every cycle (full rate, still
            within the <5 % overhead budget), larger values amortise the
            cost further on very hot loops.
        probe_stages: Wrap each run's pipeline with the per-stage probe.
            Off, only run/campaign-level metrics are recorded.
        trace: Keep a span ring buffer (campaign/chunk/run/generation
            spans; exportable to Perfetto / chrome://tracing).
        trace_capacity: Ring-buffer size in spans (oldest are dropped
            and counted once full).
    """

    sample_every: int = 1
    probe_stages: bool = True
    trace: bool = False
    trace_capacity: int = DEFAULT_CAPACITY

    def __post_init__(self):
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if self.trace_capacity < 1:
            raise ValueError("trace_capacity must be >= 1")


class Telemetry:
    """One observation context: metrics + optional tracer + config."""

    def __init__(
        self,
        config: Optional[TelemetryConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.config = config or TelemetryConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if tracer is None and self.config.trace:
            tracer = Tracer(self.config.trace_capacity)
        self.tracer = tracer

    # -- recording ---------------------------------------------------------

    def probe(self) -> Optional[PipelineProbe]:
        """A fresh per-run probe over the shared registry (None when off)."""
        if not self.config.probe_stages:
            return None
        return PipelineProbe(self.metrics, sample_every=self.config.sample_every)

    def span(self, name: str, category: str = "repro", **args) -> Union[SpanHandle, _NullSpan]:
        """A span context manager (no-op when tracing is disabled)."""
        if self.tracer is None:
            return _NULL_SPAN
        return self.tracer.span(name, category, **args)

    def record_run(
        self,
        result: "RunResult",
        steps: int,
        can_sent: int = 0,
        can_tampered: int = 0,
        wall_ns: Optional[int] = None,
    ) -> None:
        """Account one finished simulation into the campaign-level view.

        Everything here is a pure function of the simulated work (plus
        the optional wall-clock duration, which lands under ``perf.``),
        so the deterministic snapshot agrees across execution modes.
        """
        metrics = self.metrics
        metrics.counter("runs.completed").inc()
        metrics.counter("runs.steps").inc(steps)
        metrics.counter("runs.hazards").inc(len(result.hazards))
        metrics.counter("runs.accidents").inc(len(result.accidents))
        metrics.counter("runs.alerts").inc(len(result.alerts))
        metrics.counter("runs.lane_invasions").inc(result.lane_invasions)
        if result.driver_engaged:
            metrics.counter("runs.driver_engaged").inc()
        if result.attack_activated:
            metrics.counter("runs.attacks_activated").inc()
        if result.hazard_occurred:
            metrics.counter("runs.with_hazard").inc()
        metrics.counter("can.frames_sent").inc(can_sent)
        metrics.counter("can.frames_tampered").inc(can_tampered)
        metrics.histogram("run.duration_s", SECONDS_BUCKETS).record(result.duration)
        if wall_ns is not None and wall_ns > 0:
            metrics.histogram("perf.run.wall_ns").record(wall_ns)
            metrics.counter("perf.run.busy_ns").inc(wall_ns)
            metrics.gauge("perf.run.steps_per_s").set(steps / (wall_ns / 1e9))

    def merge(self, other: Union["Telemetry", MetricsRegistry, dict, None]) -> None:
        """Merge another telemetry view / registry / snapshot into this one."""
        if other is None:
            return
        if isinstance(other, Telemetry):
            self.metrics.merge(other.metrics)
            if other.tracer is not None and self.tracer is not None:
                self.tracer.merge(other.tracer)
        else:
            self.metrics.merge(other)

    def worker_config(self) -> Optional[TelemetryConfig]:
        """The config shipped to pool workers (tracing stays parent-side:
        worker clocks are not aligned with the parent's timebase)."""
        config = self.config
        if config.trace:
            config = TelemetryConfig(
                sample_every=config.sample_every,
                probe_stages=config.probe_stages,
                trace=False,
            )
        return config

    # -- time helper -------------------------------------------------------

    @staticmethod
    def now_ns() -> int:
        return perf_counter_ns()

    # -- exports -----------------------------------------------------------

    def snapshot(self) -> dict:
        return self.metrics.snapshot()

    def deterministic_snapshot(self) -> dict:
        return self.metrics.deterministic_snapshot()

    def prometheus(self) -> str:
        return prometheus_text(self.metrics)

    def summary(self, title: str = "telemetry") -> str:
        return summary(self.metrics, title=title)

    def write_prometheus(self, path: str) -> None:
        write_prometheus(self.metrics, path)

    def write_json(self, path: str, extra: Optional[dict] = None) -> None:
        write_json_snapshot(self.metrics, path, extra=extra)

    def write_trace_jsonl(self, path: str) -> int:
        if self.tracer is None:
            raise ValueError("tracing is disabled (TelemetryConfig(trace=True) enables it)")
        return write_trace_jsonl(self.tracer, path)

    def write_chrome_trace(self, path: str) -> int:
        if self.tracer is None:
            raise ValueError("tracing is disabled (TelemetryConfig(trace=True) enables it)")
        return write_chrome_trace(self.tracer, path)
