"""The user-facing telemetry handle threaded through the execution paths.

A :class:`Telemetry` object bundles one :class:`MetricsRegistry`, an
optional :class:`Tracer`, an optional event journal and the
:class:`TelemetryConfig` knobs, and is what ``Campaign.run(telemetry=...)``,
``run_simulation``, ``SearchDriver``, the campaign service, the batch
runner and the task loop accept.

Events
------

Every event the platform reports — the service's ``job.*``, the run
cache's ``cache.*``, the task loop's ``supervisor.*`` and the search
driver's ``search.generation`` — is one :meth:`Telemetry.emit` call.
:data:`EVENTS` says what each kind leaves behind: the counters it bumps,
the level of its one journal line (written when the handle carries a
journal), and whether it marks the trace.  :meth:`Telemetry.bind` stamps
correlation fields (``job_id``, ``chunk_id``) on a handle's journal lines.

Aggregation model
-----------------

Every dispatch goes through the one task loop
(:class:`repro.resilience.SupervisedExecutor`), and every chunk of it
records into a **chunk-local** registry: in-process chunks and pool
workers alike, each scalar run timed by a
:class:`~repro.telemetry.probe.ProbedPipeline` and each lockstep batch
by its own column timing.  A chunk returns its
snapshot with its results; the parent merges the snapshots of the
attempts it *accepts* **in chunk order**, so a retried chunk counts
once and the deterministic view (outside ``perf.*`` and the loop's own
``supervisor.*`` counters) is identical whatever the worker count, batch
width, chunking, completion order or recovery the supervisor performed
(pinned by the cross-mode tests).  Events are emitted in the parent
only.  In-process chunks record spans into the parent's tracer; pool
workers trace nothing (their clocks are not aligned with the parent's
timebase).

The config is a small frozen dataclass so it pickles cheaply to workers;
the registry pickles as its snapshot.
"""

from dataclasses import dataclass
from time import perf_counter_ns
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

from repro.telemetry.export import (
    prometheus_text,
    summary,
    write_chrome_trace,
    write_json_snapshot,
    write_prometheus,
    write_trace_jsonl,
)
from repro.telemetry.metrics import SECONDS_BUCKETS, MetricsRegistry
from repro.telemetry.probe import ProbedPipeline
from repro.telemetry.tracing import DEFAULT_CAPACITY, SpanHandle, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.metrics import RunResult
    from repro.kernel.pipeline import StepPipeline
    from repro.obs.journal import EventJournal


#: The platform's event vocabulary: every kind :meth:`Telemetry.emit`
#: takes, as ``(journal level, counters, trace marker)``.  Each counter
#: is bumped by 1 (``None``) or by the named field of the event (skipped
#: when the event lacks it).  No other module names these counters.
EVENTS: Dict[str, Tuple[str, Dict[str, Optional[str]], bool]] = {
    # The campaign service's JobEvent stream.
    "job.queued": ("info", {"service.jobs_submitted": None}, False),
    "job.started": ("info", {}, False),
    "job.progress": ("info", {"service.runs_served": "chunk_runs"}, False),
    "job.completed": ("info", {"service.jobs_completed": None}, False),
    "job.failed": ("error", {"service.jobs_failed": None}, False),
    # Run-cache traffic, correlated by task fingerprint.
    "cache.hit": ("info", {"cache.hits": None}, False),
    "cache.miss": ("info", {"cache.misses": None}, False),
    "cache.bypass": (
        "warning", {"cache.bypasses": None, "cache.bypass.fingerprint_unavailable": None}, False
    ),
    "cache.corruption": ("warning", {"cache.corruptions": None}, False),
    "cache.write": ("info", {"cache.writes": None}, False),
    "cache.evict": ("info", {"cache.evictions": None}, False),
    # The task loop's recovery trail.
    "supervisor.retry": ("info", {"supervisor.retries": None}, True),
    "supervisor.bisect": ("info", {"supervisor.bisections": None}, True),
    "supervisor.quarantine": ("warning", {"supervisor.quarantined": None}, True),
    "supervisor.timeout": ("warning", {"supervisor.timeouts": None}, False),
    "supervisor.respawn": ("warning", {"supervisor.pool_respawns": None}, False),
    "supervisor.degraded": ("warning", {"supervisor.degraded_to_sequential": None}, False),
    # One finished search generation.
    "search.generation": ("info", {
        "search.generations": None, "search.evaluations": "fresh",
        "search.simulations": "paid", "search.memo_hits": "memo_hits",
    }, False),
}


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
        probe_stages: Wrap each scalar run's pipeline with the per-stage
            probe (one stage timed per cycle, within the <5 % overhead
            budget), and have the lockstep batch executor time its eight
            stage columns every cycle.  Off, a scalar run records only
            run-level metrics and a batch only its per-cycle
            ``perf.batch.*`` metrics.
        trace: Keep a span ring buffer (campaign/chunk/run/generation
            spans; exportable to Perfetto / chrome://tracing).
        trace_capacity: Ring-buffer size in spans (oldest are dropped
            and counted once full).
    """

    probe_stages: bool = True
    trace: bool = False
    trace_capacity: int = DEFAULT_CAPACITY

    def __post_init__(self):
        if self.trace_capacity < 1:
            raise ValueError("trace_capacity must be >= 1")


class Telemetry:
    """One observation context: metrics, an optional tracer, an optional
    event journal (parent-side only, never shipped to workers) and config."""

    def __init__(
        self,
        config: Optional[TelemetryConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        journal: Optional["EventJournal"] = None,
    ):
        self.config = config or TelemetryConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if tracer is None and self.config.trace:
            tracer = Tracer(self.config.trace_capacity)
        self.tracer = tracer
        self.journal = journal
        self._fields: Dict[str, Any] = {}

    # -- events ------------------------------------------------------------

    def emit(self, kind: str, **fields: Any) -> None:
        """Report one event of :data:`EVENTS`: bump its counters, write its
        journal line (bound fields first, ``fields`` win), and mark the
        trace when its row asks for it and tracing is on."""
        level, counters, marked = EVENTS[kind]
        metrics = self.metrics
        for name, field in counters.items():
            amount = 1 if field is None else fields.get(field)
            if amount is not None:
                metrics.counter(name).inc(amount)
        if self._fields:
            fields = {**self._fields, **fields}
        if self.journal is not None:
            self.journal.emit(kind, level=level, **fields)
        if marked and self.tracer is not None:
            self.tracer.instant(kind, **fields)

    def declare(self, *kinds: str) -> None:
        """Create the counters of ``kinds`` at zero, so an export lists
        them before their first event."""
        for kind in kinds:
            for name in EVENTS[kind][1]:
                self.metrics.counter(name)

    def bind(self, **fields: Any) -> "Telemetry":
        """A view of this handle that stamps ``fields`` (``None`` dropped)
        on every event it emits; it shares the registry, the tracer and
        the journal, and binds compose."""
        view = Telemetry(self.config, self.metrics, self.tracer, self.journal)
        view._fields = {**self._fields, **{k: v for k, v in fields.items() if v is not None}}
        return view

    # -- recording ---------------------------------------------------------

    def probe(self, pipeline: "StepPipeline") -> Optional[ProbedPipeline]:
        """A stage-timed view of one run's ``pipeline`` over the shared
        registry (``None`` when ``probe_stages`` is off).

        The view shares the pipeline's stage objects; the run's
        finalizer calls its ``flush()``.
        """
        if not self.config.probe_stages:
            return None
        return ProbedPipeline(pipeline.stages, self.metrics)

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
            config = TelemetryConfig(probe_stages=config.probe_stages, trace=False)
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
