"""Supervised fault-tolerant dispatch for campaign-shaped work.

:class:`SupervisedExecutor` runs a list of independent simulation tasks
(or campaign cells) with the same bit-identical-to-sequential contract
as :mod:`repro.injection.executor`, but survives the failure modes a
plain process pool does not:

* **worker exceptions** — the failing chunk is retried with seeded
  exponential backoff + jitter (deterministic per ``(task, attempt)``);
* **dead workers** — a broken pool is detected, killed and respawned;
  in-flight chunks are requeued;
* **hangs** — chunks exceeding the per-chunk wall-clock timeout cause a
  pool kill + respawn (a hung worker cannot be cancelled politely);
* **corrupted results** — a worker payload that is short, reordered or
  not made of :class:`~repro.analysis.metrics.RunResult` records counts
  as a chunk failure and is retried;
* **poison tasks** — a chunk that keeps failing is bisected down to the
  offending task, which lands in the :class:`QuarantineReport` instead
  of aborting the campaign (partial results are never discarded);
* **graceful degradation** — after ``max_pool_respawns`` pool failures
  the remaining work runs sequentially in-process, and a failed batched
  chunk retries scalar; both fallbacks preserve bit-identical results.

Fault attribution across a broken pool is coarse: every chunk whose
future reports the break is charged one attempt (the pool cannot say
which worker died for which chunk), so quarantine decisions should be
read together with ``pool_respawns``.

The module-level :func:`run_supervised_simulations` and
:func:`run_supervised_campaign` add crash-safe checkpointing on top
(:class:`~repro.resilience.checkpoint.CampaignCheckpoint`): completed
runs are recorded as chunks finish, and a resumed call pays only for
the tasks the checkpoint does not already hold.
"""

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.analysis.metrics import RunResult
from repro.resilience.chaos import ChaosError, ChaosPolicy
from repro.resilience.checkpoint import CampaignCheckpoint, fingerprint_strings
from repro.resilience.errors import TaskExecutionError, cell_fingerprint, task_fingerprint
from repro.sim.units import DT
from repro.telemetry import MetricsRegistry, Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.injection.campaign import Campaign
    from repro.obs.journal import EventJournal
    from repro.obs.recorder import FlightRecorderConfig
    from repro.service.cache import RunCache

ProgressCallback = Callable[[int, int], None]
ResultCallback = Callable[[int, RunResult], None]

#: Seconds between supervision sweeps (future wait timeout).
_POLL_SECONDS = 0.05

# Worker-side state, installed by the pool initializer (or inherited by
# forked workers through the fork-time module state).
_FORK_CAMPAIGN: Optional["Campaign"] = None
_WORKER_CAMPAIGN: Optional["Campaign"] = None
_WORKER_BATCH_SIZE: Optional[int] = None
_WORKER_CHAOS: Optional[ChaosPolicy] = None
_WORKER_RECORDER: Optional["FlightRecorderConfig"] = None


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of the supervision layer.

    Attributes:
        chunk_timeout: Wall-clock seconds one chunk attempt may take
            before the pool is declared wedged (``None`` disables).
        max_chunk_attempts: Attempts per chunk before it is bisected
            (multi-task chunks) or quarantined (single-task chunks).
        backoff_base / backoff_factor: Exponential backoff between
            attempts: ``base * factor**(attempt-1)`` seconds.
        backoff_jitter: Jitter fraction added on top, drawn
            deterministically from ``(backoff_seed, task, attempt)``.
        backoff_seed: Seed of the jitter stream.
        max_pool_respawns: Pool kills/respawns tolerated before the
            remaining work degrades to sequential in-process execution.
        degrade_to_sequential: Whether that degradation is allowed
            (when ``False`` the supervisor keeps respawning pools).
    """

    chunk_timeout: Optional[float] = None
    max_chunk_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    backoff_seed: int = 2022
    max_pool_respawns: int = 2
    degrade_to_sequential: bool = True

    def __post_init__(self):
        if self.max_chunk_attempts < 1:
            raise ValueError("max_chunk_attempts must be >= 1")
        if self.max_pool_respawns < 0:
            raise ValueError("max_pool_respawns must be >= 0")

    def backoff_delay(self, anchor: int, attempt: int) -> float:
        """Deterministic backoff before retry ``attempt`` of a chunk.

        ``anchor`` is the chunk's first task index, so two chunks never
        share a jitter stream and a replayed run backs off identically.
        """
        base = self.backoff_base * (self.backoff_factor ** max(0, attempt - 1))
        if self.backoff_jitter <= 0.0 or base <= 0.0:
            return max(0.0, base)
        unit = (
            np.random.SeedSequence([self.backoff_seed, anchor, attempt]).generate_state(1)[0]
            / 2**32
        )
        return base * (1.0 + self.backoff_jitter * float(unit))


@dataclass
class QuarantinedTask:
    """One task withheld from the campaign after exhausting its retries."""

    index: int           # absolute task index in the campaign
    fingerprint: str     # (scenario, attack, seed) identity
    error: str           # last failure, stringified
    attempts: int        # failed attempts the task accumulated


@dataclass
class QuarantineReport:
    """The poison tasks a supervised run recorded instead of aborting."""

    tasks: List[QuarantinedTask] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.tasks)

    @property
    def indices(self) -> List[int]:
        return [task.index for task in self.tasks]

    def summary(self) -> str:
        if not self.tasks:
            return "no tasks quarantined"
        lines = [f"{len(self.tasks)} task(s) quarantined:"]
        for task in self.tasks:
            lines.append(
                f"  #{task.index} [{task.fingerprint}] after {task.attempts} "
                f"attempt(s): {task.error}"
            )
        return "\n".join(lines)


@dataclass
class ExecutionReport:
    """What the supervisor did to get the campaign through."""

    total: int = 0                     # tasks in the campaign
    completed: int = 0                 # fresh results produced this process
    loaded_from_checkpoint: int = 0    # results restored instead of re-run
    loaded_from_cache: int = 0         # results served by the shared run cache
    retries: int = 0                   # chunk attempts after the first
    bisections: int = 0                # failing chunks split to isolate a task
    timeouts: int = 0                  # chunk attempts killed by the timeout
    pool_respawns: int = 0             # pools killed and restarted
    scalar_fallbacks: int = 0          # batched chunks retried scalar
    backoff_seconds: float = 0.0       # retry backoff time the schedule paid
    degraded_to_sequential: bool = False
    quarantine: QuarantineReport = field(default_factory=QuarantineReport)

    @property
    def sims_paid(self) -> int:
        """Simulations actually paid for by this process (fresh results)."""
        return self.completed

    def summary(self) -> str:
        """Human-readable recovery trail (what the supervisor absorbed)."""
        lines = [
            f"supervised execution: {self.completed}/{self.total} fresh"
            + (
                f", {self.loaded_from_checkpoint} from checkpoint"
                if self.loaded_from_checkpoint
                else ""
            )
            + (f", {self.loaded_from_cache} from cache" if self.loaded_from_cache else ""),
            f"  retries={self.retries} bisections={self.bisections} "
            f"timeouts={self.timeouts} pool_respawns={self.pool_respawns} "
            f"scalar_fallbacks={self.scalar_fallbacks} "
            f"backoff={self.backoff_seconds:.2f}s"
            + (" degraded-to-sequential" if self.degraded_to_sequential else ""),
            f"  {self.quarantine.summary()}",
        ]
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.summary()

    def metrics_snapshot(self) -> dict:
        """The report as a mergeable metrics snapshot (``supervisor.*``).

        Merge it into a campaign-level registry with
        :meth:`~repro.telemetry.MetricsRegistry.merge` — the supervised
        entry points do this automatically when given a telemetry handle.
        """
        registry = MetricsRegistry()
        registry.counter("supervisor.tasks").inc(self.total)
        registry.counter("supervisor.completed").inc(self.completed)
        registry.counter("supervisor.loaded_from_checkpoint").inc(
            self.loaded_from_checkpoint
        )
        registry.counter("supervisor.loaded_from_cache").inc(self.loaded_from_cache)
        registry.counter("supervisor.retries").inc(self.retries)
        registry.counter("supervisor.bisections").inc(self.bisections)
        registry.counter("supervisor.timeouts").inc(self.timeouts)
        registry.counter("supervisor.pool_respawns").inc(self.pool_respawns)
        registry.counter("supervisor.scalar_fallbacks").inc(self.scalar_fallbacks)
        registry.counter("supervisor.quarantined").inc(len(self.quarantine.tasks))
        if self.degraded_to_sequential:
            registry.counter("supervisor.degraded_to_sequential").inc()
        registry.gauge("perf.supervisor.backoff_s").set(self.backoff_seconds)
        return registry.snapshot()


@dataclass
class SupervisedOutcome:
    """Results (aligned to the input task list) plus the supervision trail."""

    results: List[Optional[RunResult]]
    report: ExecutionReport

    @property
    def completed_results(self) -> List[RunResult]:
        """The completed runs, in task order (quarantined slots dropped)."""
        return [result for result in self.results if result is not None]

    def require_complete(self) -> List[RunResult]:
        """All results, raising when any task was quarantined."""
        if self.report.quarantine:
            raise TaskExecutionError(self.report.quarantine.summary())
        return self.completed_results


class _ChunkWork:
    """One chunk of tasks plus its retry bookkeeping."""

    __slots__ = ("entries", "attempts", "last_error")

    def __init__(self, entries: List[Tuple[int, Any]]):
        self.entries = entries          # [(absolute index, item), ...]
        self.attempts = 0
        self.last_error: Optional[BaseException] = None

    @property
    def anchor(self) -> int:
        return self.entries[0][0]


# -- worker side --------------------------------------------------------------


def _init_supervised_worker(
    campaign: Optional["Campaign"],
    batch_size: Optional[int],
    chaos: Optional[ChaosPolicy],
    recorder: Optional["FlightRecorderConfig"] = None,
) -> None:
    """Pool initializer: install campaign, batch width and chaos policy."""
    global _WORKER_CAMPAIGN, _WORKER_BATCH_SIZE, _WORKER_CHAOS, _WORKER_RECORDER
    _WORKER_CAMPAIGN = campaign if campaign is not None else _FORK_CAMPAIGN
    _WORKER_BATCH_SIZE = batch_size
    _WORKER_CHAOS = chaos
    _WORKER_RECORDER = recorder


def _run_supervised_chunk(payload):
    """Worker body: run one chunk, consulting the installed chaos policy.

    ``payload`` is ``(mode, use_batch, entries)`` with ``entries`` a list
    of ``(absolute task index, item)``; returns ``[(index, RunResult)]``
    in submission order (unless a chaos fault mangles it).
    """
    from repro.injection.engine import run_simulation

    mode, use_batch, entries = payload
    chaos = _WORKER_CHAOS
    recorder = _WORKER_RECORDER
    campaign = _WORKER_CAMPAIGN if _WORKER_CAMPAIGN is not None else _FORK_CAMPAIGN

    tasks = []
    for index, item in entries:
        if mode == "cells":
            if campaign is None:  # pragma: no cover - defensive
                raise RuntimeError("worker has no campaign installed")
            config, strategy = campaign.cell_task(item)
        else:
            config, strategy = item
        tasks.append((index, config, strategy))

    results: List[Tuple[int, RunResult]] = []
    if use_batch is not None and use_batch > 1 and len(tasks) > 1:
        from repro.kernel.batch import run_batched

        if chaos is not None:
            for index, config, strategy in tasks:
                chaos.before_task(index, task_fingerprint(config, strategy))
        try:
            outputs = run_batched(
                [(config, strategy) for _, config, strategy in tasks],
                batch_size=use_batch,
                recorder=recorder,
            )
        except Exception as error:
            raise TaskExecutionError.wrap_batch(
                [task_fingerprint(config, strategy) for _, config, strategy in tasks],
                error,
            ) from error
        results = [(index, output) for (index, _, _), output in zip(tasks, outputs)]
    else:
        for index, config, strategy in tasks:
            try:
                if chaos is not None:
                    chaos.before_task(index, task_fingerprint(config, strategy))
                results.append(
                    (index, run_simulation(config, strategy, recorder=recorder))
                )
            except TaskExecutionError:
                raise
            except Exception as error:
                raise TaskExecutionError.wrap(
                    task_fingerprint(config, strategy), error
                ) from error

    if chaos is not None:
        results = chaos.after_chunk(results)
    return results


# -- the supervisor -----------------------------------------------------------


class SupervisedExecutor:
    """Runs campaign-shaped work under the supervision policy.

    One executor instance runs one dispatch at a time (it keeps per-run
    state on ``self``); results are bit-identical to a plain sequential
    run of the same tasks whatever faults the supervisor had to absorb.
    """

    def __init__(
        self,
        policy: Optional[SupervisionPolicy] = None,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        batch_size: Optional[int] = None,
        chaos: Optional[ChaosPolicy] = None,
        telemetry: Optional[Telemetry] = None,
        recorder: Optional["FlightRecorderConfig"] = None,
        journal: Optional["EventJournal"] = None,
    ):
        self.policy = policy or SupervisionPolicy()
        self.workers = max(1, workers if workers is not None else 1)
        self.chunk_size = chunk_size
        self.batch_size = batch_size
        self.chaos = chaos
        # The flight-recorder config ships to the workers (picklable);
        # the journal stays parent-side: causal events (retry, respawn,
        # bisection, quarantine) are emitted from the supervision loop,
        # which is exactly where the facts are decided.
        self.recorder = recorder
        self.journal = journal
        # Telemetry on the supervised path is parent-side only: the
        # worker payload protocol doubles as the corruption-detection
        # surface (see _validate) and stays untouched.  Run metrics are
        # derived from the returned results (steps from the recorded
        # duration; per-run CAN frame counts are not available here), and
        # retry/bisection/quarantine markers land in the trace.
        self.telemetry = telemetry
        self._mode = "tasks"
        self._campaign: Optional["Campaign"] = None

    def _journal_emit(self, kind: str, level: str = "info", **fields) -> None:
        if self.journal is not None:
            self.journal.emit(kind, level=level, **fields)

    # -- public entry points -------------------------------------------------

    def run_tasks(
        self,
        tasks: Sequence[Tuple],
        indices: Optional[Sequence[int]] = None,
        progress: Optional[ProgressCallback] = None,
        on_result: Optional[ResultCallback] = None,
    ) -> SupervisedOutcome:
        """Run ``(SimulationConfig, strategy)`` pairs under supervision."""
        return self._run("tasks", None, list(tasks), indices, progress, on_result)

    def run_cells(
        self,
        campaign: "Campaign",
        cells: Sequence,
        indices: Optional[Sequence[int]] = None,
        progress: Optional[ProgressCallback] = None,
        on_result: Optional[ResultCallback] = None,
    ) -> SupervisedOutcome:
        """Run campaign cells under supervision (strategy factory stays
        campaign-side, so closure factories work on fork platforms)."""
        return self._run("cells", campaign, list(cells), indices, progress, on_result)

    # -- internals -----------------------------------------------------------

    def _fingerprint_item(self, item) -> str:
        try:
            if self._mode == "cells":
                assert self._campaign is not None
                return cell_fingerprint(item, self._campaign.config.strategy_name)
            config, strategy = item
            return task_fingerprint(config, strategy)
        except Exception:  # pragma: no cover - fingerprinting must not fail
            return repr(item)

    def _run(
        self,
        mode: str,
        campaign: Optional["Campaign"],
        items: List,
        indices: Optional[Sequence[int]],
        progress: Optional[ProgressCallback],
        on_result: Optional[ResultCallback],
    ) -> SupervisedOutcome:
        global _FORK_CAMPAIGN
        self._mode = mode
        self._campaign = campaign
        if indices is None:
            indices = list(range(len(items)))
        if len(indices) != len(items):
            raise ValueError("indices must align with the task list")
        report = ExecutionReport(total=len(items))
        results: Dict[int, RunResult] = {}
        if not items:
            return SupervisedOutcome(results=[], report=report)

        from repro.injection.executor import resolve_chunk_size

        entries = list(zip(indices, items))
        chunk = resolve_chunk_size(len(entries), self.workers, self.batch_size, self.chunk_size)
        pending: Deque[_ChunkWork] = deque(
            _ChunkWork(entries[i: i + chunk]) for i in range(0, len(entries), chunk)
        )
        delayed: List[Tuple[float, _ChunkWork]] = []
        inflight: Dict[Any, _ChunkWork] = {}
        deadlines: Dict[Any, Optional[float]] = {}
        pool: Optional[ProcessPoolExecutor] = None
        use_pool = self.workers > 1 and len(entries) > 1
        respawns = 0

        try:
            while pending or delayed or inflight:
                now = time.monotonic()
                still_delayed = []
                for ready_at, work in delayed:
                    if ready_at <= now:
                        pending.append(work)
                    else:
                        still_delayed.append((ready_at, work))
                delayed = still_delayed

                if not use_pool:
                    if pending:
                        self._execute_inline(
                            pending.popleft(), pending, delayed, results, report,
                            progress, on_result,
                        )
                    elif delayed:
                        time.sleep(max(0.0, min(at for at, _ in delayed) - now))
                    continue

                if pool is None and pending:
                    pool = self._spawn_pool()
                pool_broken = False
                while pending and pool is not None:
                    work = pending.popleft()
                    use_batch = (
                        self.batch_size
                        if (
                            self.batch_size is not None
                            and self.batch_size > 1
                            and len(work.entries) > 1
                            and work.attempts == 0
                        )
                        else None
                    )
                    try:
                        future = pool.submit(
                            _run_supervised_chunk, (mode, use_batch, work.entries)
                        )
                    except BrokenProcessPool:
                        # A worker died after the last sweep: respawn below
                        # and resubmit this chunk free of charge.
                        pending.appendleft(work)
                        pool_broken = True
                        break
                    inflight[future] = work
                    deadlines[future] = (
                        None
                        if self.policy.chunk_timeout is None
                        else time.monotonic() + self.policy.chunk_timeout
                    )
                if not inflight and not pool_broken:
                    if delayed:
                        time.sleep(
                            max(0.0, min(at for at, _ in delayed) - time.monotonic())
                        )
                    continue

                done, _ = wait(
                    set(inflight), timeout=_POLL_SECONDS, return_when=FIRST_COMPLETED
                )
                for future in done:
                    work = inflight.pop(future)
                    deadlines.pop(future)
                    try:
                        payload = future.result()
                    except BrokenProcessPool as error:
                        pool_broken = True
                        self._fail_attempt(work, error, pending, delayed, report)
                    except (TaskExecutionError, ChaosError, Exception) as error:
                        self._fail_attempt(work, error, pending, delayed, report)
                    else:
                        problem = self._validate(work, payload)
                        if problem is None:
                            self._record(payload, results, report, progress, on_result)
                        else:
                            self._fail_attempt(
                                work, TaskExecutionError(problem), pending, delayed, report
                            )

                now = time.monotonic()
                timed_out = [
                    future
                    for future, deadline in deadlines.items()
                    if deadline is not None and now > deadline and future in inflight
                ]
                if timed_out:
                    report.timeouts += len(timed_out)
                    for future in timed_out:
                        work = inflight.pop(future)
                        deadlines.pop(future)
                        self._journal_emit(
                            "supervisor.timeout",
                            level="warning",
                            anchor=work.anchor,
                            tasks=len(work.entries),
                            timeout_s=self.policy.chunk_timeout,
                        )
                        self._fail_attempt(
                            work,
                            TimeoutError(
                                f"chunk exceeded the {self.policy.chunk_timeout}s "
                                "wall-clock timeout"
                            ),
                            pending,
                            delayed,
                            report,
                        )
                    pool_broken = True  # a hung worker can only be killed

                if pool_broken:
                    # Requeue the innocent in-flight chunks free of charge.
                    for work in inflight.values():
                        pending.append(work)
                    inflight.clear()
                    deadlines.clear()
                    if pool is not None:
                        _kill_pool(pool)
                        pool = None
                    respawns += 1
                    report.pool_respawns = respawns
                    self._journal_emit(
                        "supervisor.respawn", level="warning", respawns=respawns
                    )
                    if (
                        respawns > self.policy.max_pool_respawns
                        and self.policy.degrade_to_sequential
                    ):
                        use_pool = False
                        report.degraded_to_sequential = True
                        self._journal_emit(
                            "supervisor.degraded", level="warning", respawns=respawns
                        )
        finally:
            if pool is not None:
                _kill_pool(pool)
            _FORK_CAMPAIGN = None
            self._campaign = None

        ordered: List[Optional[RunResult]] = [results.get(index) for index in indices]
        return SupervisedOutcome(results=ordered, report=report)

    def _spawn_pool(self) -> ProcessPoolExecutor:
        global _FORK_CAMPAIGN
        from repro.injection.executor import _pool_context

        context, forked = _pool_context()
        campaign = self._campaign
        if self._mode == "cells" and forked:
            # Forked workers inherit the campaign object (works for any
            # strategy factory, including closures); non-fork platforms
            # pickle it through the initializer instead.
            _FORK_CAMPAIGN = campaign
            init_campaign = None
        else:
            init_campaign = campaign
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=context,
            initializer=_init_supervised_worker,
            initargs=(init_campaign, self.batch_size, self.chaos, self.recorder),
        )

    def _resolve_task(self, item) -> Tuple:
        if self._mode == "cells":
            assert self._campaign is not None
            return self._campaign.cell_task(item)
        return item

    def _execute_inline(
        self,
        work: _ChunkWork,
        pending: Deque[_ChunkWork],
        delayed: List[Tuple[float, _ChunkWork]],
        results: Dict[int, RunResult],
        report: ExecutionReport,
        progress: Optional[ProgressCallback],
        on_result: Optional[ResultCallback],
    ) -> None:
        """Run one chunk in-process (sequential mode, or after degradation).

        The chaos policy deliberately does not apply here: it models
        *worker* faults, and the in-process path is the clean fallback.
        A chunk whose batched attempt failed retries scalar.
        """
        from repro.injection.engine import run_simulation

        tasks = [(index, *self._resolve_task(item)) for index, item in work.entries]
        use_batch = (
            self.batch_size
            if (
                self.batch_size is not None
                and self.batch_size > 1
                and len(tasks) > 1
                and work.attempts == 0
            )
            else None
        )
        try:
            if use_batch is not None:
                from repro.kernel.batch import run_batched

                try:
                    outputs = run_batched(
                        [(config, strategy) for _, config, strategy in tasks],
                        batch_size=use_batch,
                        recorder=self.recorder,
                    )
                except Exception as error:
                    raise TaskExecutionError.wrap_batch(
                        [task_fingerprint(config, strategy) for _, config, strategy in tasks],
                        error,
                    ) from error
                payload = [(index, output) for (index, _, _), output in zip(tasks, outputs)]
            else:
                payload = []
                for index, config, strategy in tasks:
                    try:
                        payload.append(
                            (
                                index,
                                run_simulation(config, strategy, recorder=self.recorder),
                            )
                        )
                    except Exception as error:
                        raise TaskExecutionError.wrap(
                            task_fingerprint(config, strategy), error
                        ) from error
        except TaskExecutionError as error:
            self._fail_attempt(work, error, pending, delayed, report)
            return
        self._record(payload, results, report, progress, on_result)

    def _validate(self, work: _ChunkWork, payload) -> Optional[str]:
        """Reject short, reordered or type-corrupted worker payloads."""
        expected = [index for index, _ in work.entries]
        if not isinstance(payload, list):
            return f"worker returned {type(payload).__name__}, expected a result list"
        got = [
            entry[0] if isinstance(entry, tuple) and len(entry) == 2 else None
            for entry in payload
        ]
        if got != expected:
            return (
                f"worker returned results for indices {got}, expected {expected} "
                "(short or corrupted payload)"
            )
        for index, result in payload:
            if not isinstance(result, RunResult):
                return (
                    f"task {index} returned {type(result).__name__}, "
                    "not a RunResult (corrupted payload)"
                )
        return None

    def _record(
        self,
        payload: List[Tuple[int, RunResult]],
        results: Dict[int, RunResult],
        report: ExecutionReport,
        progress: Optional[ProgressCallback],
        on_result: Optional[ResultCallback],
    ) -> None:
        telemetry = self.telemetry
        for index, result in payload:
            results[index] = result
            report.completed += 1
            if telemetry is not None:
                telemetry.record_run(result, steps=int(round(result.duration / DT)))
            if on_result is not None:
                on_result(index, result)
        if progress is not None:
            progress(report.completed, report.total)

    def _fail_attempt(
        self,
        work: _ChunkWork,
        error: BaseException,
        pending: Deque[_ChunkWork],
        delayed: List[Tuple[float, _ChunkWork]],
        report: ExecutionReport,
    ) -> None:
        work.attempts += 1
        work.last_error = error
        tracer = self.telemetry.tracer if self.telemetry is not None else None
        if work.attempts >= self.policy.max_chunk_attempts:
            if len(work.entries) > 1:
                # Bisect: isolate the poison task instead of retrying the
                # whole chunk forever. Each half starts with a clean slate.
                report.bisections += 1
                mid = len(work.entries) // 2
                pending.append(_ChunkWork(work.entries[:mid]))
                pending.append(_ChunkWork(work.entries[mid:]))
                if tracer is not None:
                    tracer.instant(
                        "supervisor.bisect", anchor=work.anchor, tasks=len(work.entries)
                    )
                self._journal_emit(
                    "supervisor.bisect",
                    anchor=work.anchor,
                    tasks=len(work.entries),
                    error=str(error),
                )
            else:
                index, item = work.entries[0]
                fingerprint = getattr(error, "fingerprint", "") or self._fingerprint_item(
                    item
                )
                report.quarantine.tasks.append(
                    QuarantinedTask(
                        index=index,
                        fingerprint=fingerprint,
                        error=str(error),
                        attempts=work.attempts,
                    )
                )
                if tracer is not None:
                    tracer.instant("supervisor.quarantine", task=index)
                self._journal_emit(
                    "supervisor.quarantine",
                    level="warning",
                    task=index,
                    fingerprint=fingerprint,
                    attempt=work.attempts,
                    error=str(error),
                )
            return
        report.retries += 1
        if (
            self.batch_size is not None
            and self.batch_size > 1
            and len(work.entries) > 1
            and work.attempts == 1
        ):
            report.scalar_fallbacks += 1  # the retry below runs scalar
        delay = self.policy.backoff_delay(work.anchor, work.attempts)
        report.backoff_seconds += delay
        if tracer is not None:
            tracer.instant(
                "supervisor.retry",
                anchor=work.anchor,
                attempt=work.attempts,
                backoff_s=round(delay, 4),
            )
        self._journal_emit(
            "supervisor.retry",
            anchor=work.anchor,
            attempt=work.attempts,
            backoff_s=round(delay, 4),
            error=str(error),
        )
        delayed.append((time.monotonic() + delay, work))


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even when its workers are hung or dead."""
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-reaped process
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass


# -- checkpointed entry points ------------------------------------------------


def _run_with_checkpoint(
    mode: str,
    campaign: Optional["Campaign"],
    items: List,
    fingerprints: List[str],
    identity_extras: List[str],
    policy: Optional[SupervisionPolicy],
    workers: Optional[int],
    chunk_size: Optional[int],
    batch_size: Optional[int],
    progress: Optional[ProgressCallback],
    chaos: Optional[ChaosPolicy],
    checkpoint_path: Optional[str],
    on_result: Optional[ResultCallback],
    telemetry: Optional[Telemetry] = None,
    cache: Optional["RunCache"] = None,
    recorder: Optional["FlightRecorderConfig"] = None,
    journal: Optional["EventJournal"] = None,
) -> SupervisedOutcome:
    total = len(items)
    checkpoint: Optional[CampaignCheckpoint] = None
    done: Dict[int, RunResult] = {}
    if checkpoint_path is not None:
        checkpoint = CampaignCheckpoint(
            checkpoint_path,
            fingerprint_strings(fingerprints + identity_extras),
            total,
        )
        done = checkpoint.load()
        if journal is not None:
            journal.emit(
                "checkpoint.loaded", path=checkpoint_path, restored=len(done), total=total
            )
    loaded_from_checkpoint = len(done)

    def task_of(index: int) -> Tuple:
        if mode == "cells":
            assert campaign is not None
            return campaign.cell_task(items[index])
        return items[index]

    # The shared run cache answers before any simulation is paid for:
    # every task not already restored by the checkpoint is looked up by
    # content fingerprint, and the hits join `done` exactly as checkpoint
    # results do.  Fresh results are stored back from the result hook, so
    # resume-by-replay degenerates to cache lookup on the next run.
    cache_keys: Dict[int, str] = {}
    loaded_from_cache = 0
    if cache is not None:
        cache = cache.with_journal(journal)
        for index in range(total):
            if index in done:
                continue
            config, strategy = task_of(index)
            key = cache.fingerprint(config, strategy)
            if key is None:
                continue
            cache_keys[index] = key
            hit = cache.get(key)
            if hit is not None:
                done[index] = hit
                loaded_from_cache += 1

    pending_indices = [index for index in range(total) if index not in done]
    executor = SupervisedExecutor(
        policy=policy,
        workers=workers,
        chunk_size=chunk_size,
        batch_size=batch_size,
        chaos=chaos,
        telemetry=telemetry,
        recorder=recorder,
        journal=journal,
    )
    loaded = len(done)
    from repro.injection.executor import resolve_chunk_size

    # One flush per chunk's worth of fresh results.
    flush_every = resolve_chunk_size(
        max(1, len(pending_indices)), executor.workers, batch_size, chunk_size
    )
    fresh_since_flush = 0

    def hook(index: int, result: RunResult) -> None:
        nonlocal fresh_since_flush
        if checkpoint is not None:
            checkpoint.record(index, result)
            fresh_since_flush += 1
            if fresh_since_flush >= flush_every:
                checkpoint.flush()
                fresh_since_flush = 0
                if journal is not None:
                    journal.emit("checkpoint.flush", path=checkpoint_path)
        if cache is not None and index in cache_keys:
            cache.put(cache_keys[index], result)
        if on_result is not None:
            on_result(index, result)

    wrapped_progress: Optional[ProgressCallback] = None
    if progress is not None:
        wrapped_progress = lambda completed, _total: progress(loaded + completed, total)  # noqa: E731

    if mode == "cells":
        assert campaign is not None
        outcome = executor.run_cells(
            campaign,
            [items[index] for index in pending_indices],
            indices=pending_indices,
            progress=wrapped_progress,
            on_result=hook,
        )
    else:
        outcome = executor.run_tasks(
            [items[index] for index in pending_indices],
            indices=pending_indices,
            progress=wrapped_progress,
            on_result=hook,
        )
    if checkpoint is not None:
        checkpoint.flush()
        if journal is not None:
            journal.emit("checkpoint.flush", path=checkpoint_path, final=True)

    merged: List[Optional[RunResult]] = [None] * total
    for index, result in done.items():
        merged[index] = result
    for position, index in enumerate(pending_indices):
        merged[index] = outcome.results[position]
    outcome.results = merged
    outcome.report.total = total
    outcome.report.loaded_from_checkpoint = loaded_from_checkpoint
    outcome.report.loaded_from_cache = loaded_from_cache
    if telemetry is not None:
        # Merged last so loaded_from_checkpoint is final; run metrics were
        # recorded per result as chunks completed.
        telemetry.merge(outcome.report.metrics_snapshot())
    return outcome


def run_supervised_simulations(
    tasks: Sequence[Tuple],
    policy: Optional[SupervisionPolicy] = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    batch_size: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    chaos: Optional[ChaosPolicy] = None,
    checkpoint_path: Optional[str] = None,
    on_result: Optional[ResultCallback] = None,
    telemetry: Optional[Telemetry] = None,
    cache: Optional["RunCache"] = None,
    recorder: Optional["FlightRecorderConfig"] = None,
    journal: Optional["EventJournal"] = None,
) -> SupervisedOutcome:
    """Supervised (and optionally checkpointed) :func:`run_simulations`.

    Results are bit-identical to a plain sequential run; with
    ``checkpoint_path`` a resumed call pays only for unfinished tasks,
    and with ``cache`` (:class:`repro.service.RunCache`) only for tasks
    the shared content-addressed cache cannot serve.  ``recorder`` arms
    the per-run flight recorder in the workers; ``journal`` receives the
    supervision and checkpoint events (parent-side only).
    """
    tasks = list(tasks)
    fingerprints = [task_fingerprint(config, strategy) for config, strategy in tasks]
    return _run_with_checkpoint(
        "tasks", None, tasks, fingerprints, [], policy, workers, chunk_size,
        batch_size, progress, chaos, checkpoint_path, on_result, telemetry,
        cache, recorder, journal,
    )


def run_supervised_campaign(
    campaign: "Campaign",
    policy: Optional[SupervisionPolicy] = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    batch_size: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    chaos: Optional[ChaosPolicy] = None,
    checkpoint_path: Optional[str] = None,
    on_result: Optional[ResultCallback] = None,
    telemetry: Optional[Telemetry] = None,
    cache: Optional["RunCache"] = None,
    recorder: Optional["FlightRecorderConfig"] = None,
    journal: Optional["EventJournal"] = None,
) -> SupervisedOutcome:
    """Supervised (and optionally checkpointed) :meth:`Campaign.run`.

    The checkpoint fingerprint covers every cell's ``(scenario, attack,
    seed, distance, repetition)`` plus the campaign's strategy name,
    driver flag and step budget, so a stale checkpoint from an edited
    campaign refuses to load.
    """
    config = campaign.config
    cells = list(campaign.cells())
    fingerprints = [cell_fingerprint(cell, config.strategy_name) for cell in cells]
    identity = [
        f"strategy={config.strategy_name}",
        f"driver={config.driver_enabled}",
        f"max_steps={config.max_steps}",
    ]
    return _run_with_checkpoint(
        "cells", campaign, cells, fingerprints, identity, policy, workers,
        chunk_size, batch_size, progress, chaos, checkpoint_path, on_result,
        telemetry, cache, recorder, journal,
    )
