"""The one task loop: every dispatch of simulation tasks runs through it.

:class:`SupervisedExecutor` runs a list of independent ``(SimulationConfig,
strategy)`` tasks in-process or on a process pool and returns results
aligned to the task list, bit-identical to a sequential run whatever the
worker count, lockstep batch width or chunking.
:func:`~repro.injection.executor.run_simulations`, ``Campaign.run``, the
experiments, the search driver and the campaign service all dispatch
through it.  Every dispatch:

* serves what the shared run cache holds and cuts the rest into chunks
  by :func:`~repro.injection.executor.resolve_chunk_size`;
* runs every chunk through one chunk body (:func:`_run_chunk`), in-process
  or in a pool worker: one lockstep batch on the chunk's first attempt
  when ``batch_size > 1``, scalar runs otherwise;
* validates every chunk payload: a result list that is short, reordered
  or not made of :class:`~repro.analysis.metrics.RunResult` records is a
  failed attempt;
* accepts chunks as they complete: results land at their task indices,
  fresh results are stored in the run cache *before* ``progress`` fires
  (so an interrupted dispatch resumes from the cache directory), and the
  accepted chunks' telemetry snapshots are merged in chunk order;
* emits every event once, through its telemetry handle: the cache's
  ``cache.*`` traffic and the loop's ``supervisor.*`` recovery trail.

Without a :class:`SupervisionPolicy` the first failed attempt raises its
fingerprinted :class:`~repro.resilience.errors.TaskExecutionError`, and a
broken pool raises :class:`BrokenProcessPool`.  A policy (or a chaos
policy, which implies the default one) buys recovery:

* **worker exceptions** — the failing chunk is retried with seeded
  exponential backoff + jitter (deterministic per ``(task, attempt)``);
* **dead workers** — a broken pool is detected, killed and respawned;
  in-flight chunks are requeued;
* **hangs** — chunks exceeding the per-chunk wall-clock timeout cause a
  pool kill + respawn (a hung worker cannot be cancelled politely);
* **corrupted results** — a rejected payload is retried;
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
"""

import multiprocessing
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
from repro.resilience.chaos import ChaosPolicy
from repro.resilience.errors import TaskExecutionError, task_fingerprint
from repro.telemetry import Telemetry, TelemetryConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.recorder import FlightRecorderConfig
    from repro.service.cache import RunCache
    from repro.telemetry.tracing import Tracer

ProgressCallback = Callable[[int, int], None]
#: One chunk entry: ``(absolute task index, (SimulationConfig, strategy))``.
Entry = Tuple[int, Tuple[Any, Any]]
#: What a chunk attempt returns: ``([(index, RunResult)], metrics snapshot)``.
ChunkPayload = Tuple[List[Tuple[int, RunResult]], Optional[dict]]

#: Seconds between supervision sweeps (future wait timeout).
_POLL_SECONDS = 0.05

#: The :class:`ExecutionReport` count each supervision event bumps
#: (``supervisor.quarantine`` files its task in the report's quarantine,
#: ``supervisor.degraded`` sets its flag).
_REPORT_COUNTS = {
    "supervisor.retry": "retries",
    "supervisor.bisect": "bisections",
    "supervisor.timeout": "timeouts",
    "supervisor.respawn": "pool_respawns",
}


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

    __slots__ = ("entries", "attempts")

    def __init__(self, entries: Sequence[Entry]):
        self.entries = entries          # [(absolute index, task), ...]
        self.attempts = 0

    @property
    def anchor(self) -> int:
        return self.entries[0][0]


# -- the chunk body -----------------------------------------------------------


def _run_chunk(
    entries: Sequence[Entry],
    batch_size: Optional[int],
    chaos: Optional[ChaosPolicy],
    recorder: Optional["FlightRecorderConfig"],
    telemetry_config: Optional[TelemetryConfig],
    tracer: Optional["Tracer"] = None,
) -> ChunkPayload:
    """Run one chunk, in-process or in a pool worker.

    A chunk of more than one task steps through one lockstep batch when
    ``batch_size > 1``; otherwise its tasks run in turn.  A failure
    raises :class:`TaskExecutionError` naming the task's fingerprint (a
    batched failure names every candidate).  ``chaos`` fires its faults
    around the tasks; the executor passes it to pool workers only, since
    it models *worker* faults.

    Returns the ``(index, RunResult)`` pairs in submission order (unless
    a chaos fault mangles them) and the chunk-local metrics snapshot
    (``None`` with telemetry off), which the parent merges only if it
    accepts the attempt.  ``tracer`` (in-process chunks only) receives
    the runs' spans directly.
    """
    from repro.injection.engine import run_simulation

    telemetry = None
    if telemetry_config is not None:
        telemetry = Telemetry(telemetry_config, tracer=tracer)
    if batch_size is not None and batch_size > 1 and len(entries) > 1:
        from repro.kernel.batch import run_batched

        tasks = [task for _, task in entries]
        try:
            if chaos is not None:
                for index, task in entries:
                    chaos.before_task(index, task_fingerprint(*task))
            results = run_batched(
                tasks, batch_size=batch_size, telemetry=telemetry, recorder=recorder
            )
        except Exception as error:
            raise TaskExecutionError.wrap_batch(
                [task_fingerprint(*task) for task in tasks], error
            ) from error
        pairs = [(index, result) for (index, _), result in zip(entries, results)]
    else:
        pairs = []
        for index, (config, strategy) in entries:
            try:
                if chaos is not None:
                    chaos.before_task(index, task_fingerprint(config, strategy))
                result = run_simulation(
                    config, strategy, telemetry=telemetry, recorder=recorder
                )
            except Exception as error:
                raise TaskExecutionError.wrap(
                    task_fingerprint(config, strategy), error
                ) from error
            pairs.append((index, result))
    if chaos is not None:
        pairs = chaos.after_chunk(pairs)
    return pairs, None if telemetry is None else telemetry.snapshot()


def _pool_context():
    """Prefer ``fork``: cheap, and workers start with the parent's imports."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


# -- the loop -----------------------------------------------------------------


class SupervisedExecutor:
    """Runs simulation tasks through the one task loop (see the module
    docstring).

    One instance runs one dispatch at a time (the pool size of the
    running dispatch lives on ``self``); results are bit-identical to a
    plain sequential run of the same tasks whatever faults the
    supervisor had to absorb.  ``policy=None`` fails fast; ``chaos``
    implies the default policy.
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
    ):
        if policy is None and chaos is not None:
            policy = SupervisionPolicy()
        self.policy = policy
        self.workers = max(1, workers if workers is not None else 1)
        self.chunk_size = chunk_size
        self.batch_size = batch_size
        self.chaos = chaos
        # The flight-recorder config ships to the workers (picklable).
        self.recorder = recorder
        # Chunks record into chunk-local registries; the loop merges the
        # snapshots of accepted attempts only, so a retried chunk is
        # counted once.  Events (retry, respawn, bisection, quarantine)
        # are emitted from the loop, parent-side, exactly where the facts
        # are decided.
        self.telemetry = telemetry
        self._processes = self.workers

    def _event(self, report: ExecutionReport, kind: str, **fields) -> None:
        """Record one supervision event in ``report`` and emit it."""
        count = _REPORT_COUNTS.get(kind)
        if count is not None:
            setattr(report, count, getattr(report, count) + 1)
        elif kind == "supervisor.quarantine":
            report.quarantine.tasks.append(
                QuarantinedTask(
                    fields["task"], fields["fingerprint"], fields["error"], fields["attempt"]
                )
            )
        elif kind == "supervisor.degraded":
            report.degraded_to_sequential = True
        if self.telemetry is not None:
            self.telemetry.emit(kind, **fields)

    def run_tasks(
        self,
        tasks: Sequence[Tuple],
        progress: Optional[ProgressCallback] = None,
        cache: Optional["RunCache"] = None,
    ) -> SupervisedOutcome:
        """Run ``(SimulationConfig, strategy)`` pairs; results align to ``tasks``.

        With ``cache`` (:class:`repro.service.RunCache`) the tasks it
        holds are served without simulating (they count toward
        ``progress`` up front), and each fresh result is stored as its
        chunk is accepted.  ``progress(completed, total)`` fires once per
        accepted chunk.
        """
        tasks = list(tasks)
        total = len(tasks)
        report = ExecutionReport(total=total)
        results: List[Optional[RunResult]] = [None] * total
        keys: List[Optional[str]] = [None] * total
        pending: Sequence[int] = range(total)
        if cache is not None:
            from repro.service.cache import partition_tasks

            cache = cache.with_telemetry(self.telemetry)
            hits, pending, keys = partition_tasks(tasks, cache)
            for index, hit in hits.items():
                results[index] = hit
            report.loaded_from_cache = len(hits)
            if hits and progress is not None:
                progress(len(hits), total)
        snapshots: Dict[int, dict] = {}

        def accept(work: _ChunkWork, payload: ChunkPayload) -> None:
            pairs, snapshot = payload
            for index, result in pairs:
                results[index] = result
                key = keys[index]
                if key is not None and cache is not None:
                    cache.put(key, result)
            report.completed += len(pairs)
            if snapshot is not None:
                snapshots[work.anchor] = snapshot
            if progress is not None:
                progress(report.loaded_from_cache + report.completed, total)

        try:
            if pending:
                self._run([(index, tasks[index]) for index in pending], report, accept)
        finally:
            telemetry = self.telemetry
            if telemetry is not None:
                # Chunk order, not completion order: the merged view is
                # independent of scheduling.
                for anchor in sorted(snapshots):
                    telemetry.merge(snapshots[anchor])
                metrics = telemetry.metrics
                metrics.counter("supervisor.tasks").inc(report.total)
                metrics.counter("supervisor.completed").inc(report.completed)
                metrics.counter("supervisor.loaded_from_cache").inc(report.loaded_from_cache)
                metrics.counter("supervisor.scalar_fallbacks").inc(report.scalar_fallbacks)
                metrics.gauge("perf.supervisor.backoff_s").set(report.backoff_seconds)
                telemetry.declare(*_REPORT_COUNTS, "supervisor.quarantine")
        return SupervisedOutcome(results=results, report=report)

    def _run(
        self,
        entries: List[Entry],
        report: ExecutionReport,
        accept: Callable[[_ChunkWork, ChunkPayload], None],
    ) -> None:
        from repro.injection.executor import _chunked, resolve_chunk_size

        size = resolve_chunk_size(len(entries), self.workers, self.batch_size, self.chunk_size)
        pending: Deque[_ChunkWork] = deque(
            _ChunkWork(chunk) for chunk in _chunked(entries, size)
        )
        self._processes = min(self.workers, len(pending))
        delayed: List[Tuple[float, _ChunkWork]] = []
        inflight: Dict[Any, _ChunkWork] = {}
        deadlines: Dict[Any, Optional[float]] = {}
        pool: Optional[ProcessPoolExecutor] = None
        use_pool = self.workers > 1 and len(entries) > 1
        timeout = self.policy.chunk_timeout if self.policy is not None else None
        telemetry = self.telemetry
        worker_telemetry = telemetry.worker_config() if telemetry is not None else None

        def settle(work: _ChunkWork, payload) -> None:
            problem = self._validate(work, payload)
            if problem is None:
                accept(work, payload)
            else:
                self._fail_attempt(work, TaskExecutionError(problem), pending, delayed, report)

        try:
            while pending or delayed or inflight:
                now = time.monotonic()
                pending.extend(work for ready_at, work in delayed if ready_at <= now)
                delayed = [(ready_at, work) for ready_at, work in delayed if ready_at > now]

                if not use_pool:
                    if pending:
                        work = pending.popleft()
                        try:
                            payload = _run_chunk(
                                work.entries,
                                self._batch_width(work),
                                None,
                                self.recorder,
                                telemetry.config if telemetry is not None else None,
                                telemetry.tracer if telemetry is not None else None,
                            )
                        except TaskExecutionError as error:
                            self._fail_attempt(work, error, pending, delayed, report)
                        else:
                            settle(work, payload)
                    elif delayed:
                        time.sleep(max(0.0, min(at for at, _ in delayed) - now))
                    continue

                if pool is None and pending:
                    pool = self._spawn_pool()
                pool_broken = False
                while pending and pool is not None:
                    work = pending.popleft()
                    try:
                        future = pool.submit(
                            _run_chunk,
                            work.entries,
                            self._batch_width(work),
                            self.chaos,
                            self.recorder,
                            worker_telemetry,
                        )
                    except BrokenProcessPool:
                        if self.policy is None:
                            raise
                        # A worker died after the last sweep: respawn below
                        # and resubmit this chunk free of charge.
                        pending.appendleft(work)
                        pool_broken = True
                        break
                    inflight[future] = work
                    deadlines[future] = None if timeout is None else time.monotonic() + timeout
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
                    except Exception as error:
                        pool_broken = pool_broken or isinstance(error, BrokenProcessPool)
                        self._fail_attempt(work, error, pending, delayed, report)
                    else:
                        settle(work, payload)

                now = time.monotonic()
                timed_out = [
                    future
                    for future, deadline in deadlines.items()
                    if deadline is not None and now > deadline and future in inflight
                ]
                if timed_out:
                    for future in timed_out:
                        work = inflight.pop(future)
                        deadlines.pop(future)
                        self._event(
                            report,
                            "supervisor.timeout",
                            anchor=work.anchor,
                            tasks=len(work.entries),
                            timeout_s=timeout,
                        )
                        self._fail_attempt(
                            work,
                            TimeoutError(f"chunk exceeded the {timeout}s wall-clock timeout"),
                            pending,
                            delayed,
                            report,
                        )
                    pool_broken = True  # a hung worker can only be killed

                if pool_broken:
                    assert self.policy is not None  # without one, the break raised
                    # Requeue the innocent in-flight chunks free of charge.
                    pending.extend(inflight.values())
                    inflight.clear()
                    deadlines.clear()
                    if pool is not None:
                        _kill_pool(pool)
                        pool = None
                    self._event(
                        report, "supervisor.respawn", respawns=report.pool_respawns + 1
                    )
                    if (
                        report.pool_respawns > self.policy.max_pool_respawns
                        and self.policy.degrade_to_sequential
                    ):
                        use_pool = False
                        self._event(
                            report, "supervisor.degraded", respawns=report.pool_respawns
                        )
        finally:
            if pool is not None:
                _kill_pool(pool)

    def _spawn_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self._processes, mp_context=_pool_context())

    def _batch_width(self, work: _ChunkWork) -> Optional[int]:
        """Lockstep width of a chunk attempt: a failed batched attempt
        retries scalar."""
        return self.batch_size if work.attempts == 0 else None

    @staticmethod
    def _validate(work: _ChunkWork, payload) -> Optional[str]:
        """Reject short, reordered or type-corrupted chunk payloads."""
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return f"chunk returned {type(payload).__name__}, expected (results, telemetry)"
        pairs = payload[0]
        if not isinstance(pairs, list):
            return f"chunk returned {type(pairs).__name__}, expected a result list"
        expected = [index for index, _ in work.entries]
        got = [
            entry[0] if isinstance(entry, tuple) and len(entry) == 2 else None
            for entry in pairs
        ]
        if got != expected:
            return (
                f"chunk returned results for indices {got}, expected {expected} "
                "(short or corrupted payload)"
            )
        for index, result in pairs:
            if not isinstance(result, RunResult):
                return (
                    f"task {index} returned {type(result).__name__}, "
                    "not a RunResult (corrupted payload)"
                )
        return None

    def _fail_attempt(
        self,
        work: _ChunkWork,
        error: BaseException,
        pending: Deque[_ChunkWork],
        delayed: List[Tuple[float, _ChunkWork]],
        report: ExecutionReport,
    ) -> None:
        policy = self.policy
        if policy is None:
            raise error
        work.attempts += 1
        if work.attempts >= policy.max_chunk_attempts:
            if len(work.entries) > 1:
                # Bisect: isolate the poison task instead of retrying the
                # whole chunk forever. Each half starts with a clean slate.
                mid = len(work.entries) // 2
                pending.append(_ChunkWork(work.entries[:mid]))
                pending.append(_ChunkWork(work.entries[mid:]))
                self._event(
                    report,
                    "supervisor.bisect",
                    anchor=work.anchor,
                    tasks=len(work.entries),
                    error=str(error),
                )
            else:
                index, task = work.entries[0]
                self._event(
                    report,
                    "supervisor.quarantine",
                    task=index,
                    fingerprint=getattr(error, "fingerprint", "") or task_fingerprint(*task),
                    attempt=work.attempts,
                    error=str(error),
                )
            return
        if (
            self.batch_size is not None
            and self.batch_size > 1
            and len(work.entries) > 1
            and work.attempts == 1
        ):
            report.scalar_fallbacks += 1  # the retry below runs scalar
        delay = policy.backoff_delay(work.anchor, work.attempts)
        report.backoff_seconds += delay
        self._event(
            report,
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


def run_supervised_simulations(
    tasks: Sequence[Tuple],
    policy: Optional[SupervisionPolicy] = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    batch_size: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    chaos: Optional[ChaosPolicy] = None,
    telemetry: Optional[Telemetry] = None,
    cache: Optional["RunCache"] = None,
    recorder: Optional["FlightRecorderConfig"] = None,
) -> SupervisedOutcome:
    """Run tasks through the one task loop; results plus the report.

    The results align to ``tasks`` (``None`` where a poison task was
    quarantined) and are bit-identical to a plain sequential run.  With
    ``cache`` (:class:`repro.service.RunCache`) only the tasks the
    shared content-addressed cache cannot serve are paid for, and fresh
    results are stored as their chunks are accepted — so rerunning an
    interrupted call on the same cache directory resumes it.
    ``recorder`` arms the per-run flight recorder in every chunk;
    ``telemetry`` receives the run metrics, the supervision and cache
    events and, when it carries a journal, their journal lines
    (parent-side only).
    """
    executor = SupervisedExecutor(
        policy=policy,
        workers=workers,
        chunk_size=chunk_size,
        batch_size=batch_size,
        chaos=chaos,
        telemetry=telemetry,
        recorder=recorder,
    )
    return executor.run_tasks(tasks, progress=progress, cache=cache)
