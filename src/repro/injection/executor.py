"""Parallel execution of fault-injection campaigns.

The paper's headline results each sweep a grid of 1,440 simulations per
strategy (14,400 for the Random-ST+DUR baseline).  Every grid cell is an
independent simulation whose seed is derived deterministically from
``(master_seed, cell index)``, so the campaign is embarrassingly parallel
and the results of a parallel run are **bit-identical** to a sequential
run of the same :class:`~repro.injection.campaign.CampaignConfig` — the
determinism test in ``tests/integration/test_parallel_campaign.py`` pins
this property.

:class:`ParallelCampaignRunner` fans the grid out over a process pool
(worker count, chunked cell dispatch, ordered result collection and
progress callbacks), and :func:`run_simulations` offers the same fan-out
for lists of ``(SimulationConfig, strategy)`` pairs, as used by the whole
Table IV grid and the Figure 8 parameter-space sweep.

Performance
-----------

Workers are plain OS processes (``concurrent.futures``), so campaign
throughput scales near-linearly with physical cores until memory
bandwidth saturates.  Every pool cuts its work by one rule,
:func:`resolve_chunk_size`: unbatched dispatch sends ~4 chunks per
worker, which keeps inter-process traffic to a few pickled ``RunResult``
lists per worker instead of one round-trip per run; batched dispatch
sends as many chunks per worker as full batches fit (1 to 4), so each
worker's lockstep batch runs full while its chunk lasts.  The benchmark
(``perfbench/run.py``) measures the result end to end (``runs_per_s`` on
``paper-campaign``) and per layer: ``kernel.batch.rows_per_cycle``
shows how full the batches run, ``kernel.dense.row_share`` how many
row-steps ran on the dense tier, and ``injection.pool.busy_share`` and
``injection.pool.overhead_s`` what the pool costs.

On start-methods without ``fork`` the campaign configuration and the
strategy factory are pickled to the workers; with ``fork`` they are
inherited, so lambda/closure factories work there too.
"""

import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.analysis.metrics import RunResult
from repro.core.strategies import AttackStrategy
from repro.injection.engine import SimulationConfig, run_simulation
from repro.resilience.errors import TaskExecutionError, cell_fingerprint, task_fingerprint
from repro.telemetry import Telemetry, TelemetryConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.injection.campaign import Campaign, CampaignCell
    from repro.obs.journal import EventJournal
    from repro.obs.recorder import FlightRecorderConfig
    from repro.resilience.chaos import ChaosPolicy
    from repro.resilience.supervisor import SupervisionPolicy
    from repro.service.cache import RunCache

ProgressCallback = Callable[[int, int], None]
SimulationTask = Tuple[SimulationConfig, Optional[AttackStrategy]]

# Campaign inherited by forked workers (set just before the pool spawns).
_FORK_CAMPAIGN: Optional["Campaign"] = None
# Per-worker campaign, set by the pool initializer.
_WORKER_CAMPAIGN: Optional["Campaign"] = None
# Per-worker lockstep batch width (None/1 = scalar), set by the initializers.
_WORKER_BATCH_SIZE: Optional[int] = None
# Per-worker telemetry config (None = telemetry off), set by the initializers.
# Workers accumulate into chunk-local registries and ship snapshots back
# with the results; the parent merges them in chunk order (deterministic).
_WORKER_TELEMETRY_CONFIG: Optional[TelemetryConfig] = None
# Per-worker flight-recorder config (None = recording off), set by the
# initializers.  Workers write their own flight-record artifacts (the
# config is a small frozen dataclass, cheap to pickle); the journal, by
# contrast, stays parent-side only and is never shipped to workers.
_WORKER_RECORDER: Optional["FlightRecorderConfig"] = None


#: Most chunks a dispatch hands each worker (see :func:`resolve_chunk_size`).
_CHUNKS_PER_WORKER = 4


def default_worker_count() -> int:
    """Number of workers used when ``workers`` is not specified."""
    return max(1, os.cpu_count() or 1)


def resolve_chunk_size(
    total: int,
    workers: int,
    batch_size: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> int:
    """Tasks per dispatched chunk: the one chunking rule of every pool.

    An explicit ``chunk_size`` wins.  Otherwise unbatched dispatch cuts
    the work into ~4 chunks per worker, so stragglers rebalance while the
    per-chunk dispatch cost stays negligible.  A worker steps each chunk
    through its own lockstep batch, so batched dispatch (``batch_size >
    1``) uses as many chunks per worker as full batches fit, between 1
    and 4: each chunk holds a full batch whenever the work allows (100
    tasks on 2 workers at batch 16 give chunks of 17).
    """
    if chunk_size is not None:
        return max(1, chunk_size)
    per_worker = _CHUNKS_PER_WORKER
    if batch_size is not None and batch_size > 1:
        per_worker = min(_CHUNKS_PER_WORKER, max(1, total // (workers * batch_size)))
    return max(1, -(-total // (workers * per_worker)))


def _chunked(items: Sequence, chunk_size: int) -> List[Sequence]:
    return [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]


def _init_worker(
    campaign: Optional["Campaign"],
    batch_size: Optional[int] = None,
    telemetry_config: Optional[TelemetryConfig] = None,
    recorder: Optional["FlightRecorderConfig"] = None,
) -> None:
    """Pool initializer: install the campaign and batch width for this worker."""
    global _WORKER_CAMPAIGN, _WORKER_BATCH_SIZE, _WORKER_TELEMETRY_CONFIG
    global _WORKER_RECORDER
    _WORKER_CAMPAIGN = campaign if campaign is not None else _FORK_CAMPAIGN
    _WORKER_BATCH_SIZE = batch_size
    _WORKER_TELEMETRY_CONFIG = telemetry_config
    _WORKER_RECORDER = recorder


def _init_task_worker(
    batch_size: Optional[int],
    telemetry_config: Optional[TelemetryConfig] = None,
    recorder: Optional["FlightRecorderConfig"] = None,
) -> None:
    """Pool initializer for ad-hoc task chunks: install the batch width."""
    global _WORKER_BATCH_SIZE, _WORKER_TELEMETRY_CONFIG, _WORKER_RECORDER
    _WORKER_BATCH_SIZE = batch_size
    _WORKER_TELEMETRY_CONFIG = telemetry_config
    _WORKER_RECORDER = recorder


def _chunk_telemetry() -> Optional[Telemetry]:
    """A fresh chunk-local telemetry handle (None when telemetry is off)."""
    if _WORKER_TELEMETRY_CONFIG is None:
        return None
    return Telemetry(_WORKER_TELEMETRY_CONFIG)


def _run_cells(
    indexed_chunk: Tuple[int, Sequence["CampaignCell"]],
) -> Tuple[int, List[RunResult], Optional[dict]]:
    """Worker body: run one chunk of campaign cells in submission order.

    A failing simulation raises :class:`TaskExecutionError` naming the
    offending task's ``(scenario, attack, seed)`` fingerprint, so the
    parent sees which run died instead of a bare pool traceback.  The
    third element is the chunk's metrics snapshot (None with telemetry
    off); the parent merges snapshots in chunk order.
    """
    chunk_index, cells = indexed_chunk
    campaign = _WORKER_CAMPAIGN
    if campaign is None:  # pragma: no cover - defensive
        raise RuntimeError("worker has no campaign installed")
    batch_size = _WORKER_BATCH_SIZE
    telemetry = _chunk_telemetry()
    recorder = _WORKER_RECORDER
    strategy_name = campaign.config.strategy_name
    if batch_size is not None and batch_size > 1 and len(cells) > 1:
        from repro.kernel.batch import run_batched

        try:
            results = run_batched(
                [campaign.cell_task(cell) for cell in cells],
                batch_size=batch_size,
                telemetry=telemetry,
                recorder=recorder,
            )
            return chunk_index, results, telemetry.snapshot() if telemetry is not None else None
        except Exception as error:
            raise TaskExecutionError.wrap_batch(
                [cell_fingerprint(cell, strategy_name) for cell in cells], error
            ) from error
    results = []
    for cell in cells:
        try:
            results.append(campaign.run_cell(cell, telemetry=telemetry, recorder=recorder))
        except Exception as error:
            raise TaskExecutionError.wrap(
                cell_fingerprint(cell, strategy_name), error
            ) from error
    return chunk_index, results, telemetry.snapshot() if telemetry is not None else None


def _run_tasks(
    indexed_chunk: Tuple[int, Sequence[SimulationTask]],
) -> Tuple[int, List[RunResult], Optional[dict]]:
    """Worker body: run one chunk of ad-hoc simulation tasks.

    Failures carry the task fingerprint, as in :func:`_run_cells`; the
    third element is the chunk's metrics snapshot (None with telemetry
    off).
    """
    chunk_index, tasks = indexed_chunk
    batch_size = _WORKER_BATCH_SIZE
    telemetry = _chunk_telemetry()
    recorder = _WORKER_RECORDER
    if batch_size is not None and batch_size > 1 and len(tasks) > 1:
        from repro.kernel.batch import run_batched

        try:
            results = run_batched(
                tasks, batch_size=batch_size, telemetry=telemetry, recorder=recorder
            )
            return chunk_index, results, telemetry.snapshot() if telemetry is not None else None
        except Exception as error:
            raise TaskExecutionError.wrap_batch(
                [task_fingerprint(config, strategy) for config, strategy in tasks],
                error,
            ) from error
    results = []
    for config, strategy in tasks:
        try:
            results.append(
                run_simulation(config, strategy, telemetry=telemetry, recorder=recorder)
            )
        except Exception as error:
            raise TaskExecutionError.wrap(
                task_fingerprint(config, strategy), error
            ) from error
    return chunk_index, results, telemetry.snapshot() if telemetry is not None else None


def _pool_context():
    """Prefer ``fork`` (cheap, inherits unpicklable strategy factories)."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork"), True
    return multiprocessing.get_context(), False


def _dispatch(
    worker_fn: Callable,
    chunks: List[Tuple[int, Sequence]],
    total: int,
    workers: int,
    progress: Optional[ProgressCallback],
    context,
    initializer: Optional[Callable] = None,
    initargs: tuple = (),
    telemetry: Optional[Telemetry] = None,
) -> List[RunResult]:
    """Fan chunks out over a pool; collect results back in chunk order.

    Progress callbacks fire with the cumulative completed-run count as
    chunks *complete* (possibly out of order); the returned flat list is
    re-ordered by chunk index, so it reproduces the sequential result
    order exactly.  Worker metrics snapshots are likewise merged into
    ``telemetry`` in chunk order after collection, so the merged view is
    independent of chunk completion order.
    """
    ordered: List[Optional[List[RunResult]]] = [None] * len(chunks)
    snapshots: List[Optional[dict]] = [None] * len(chunks)
    completed_runs = 0
    with ProcessPoolExecutor(
        max_workers=min(workers, len(chunks)),
        mp_context=context,
        initializer=initializer,
        initargs=initargs,
    ) as pool:
        pending = {pool.submit(worker_fn, chunk) for chunk in chunks}
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                chunk_index, results, snapshot = future.result()
                ordered[chunk_index] = results
                snapshots[chunk_index] = snapshot
                completed_runs += len(results)
                if progress is not None:
                    progress(completed_runs, total)
    if telemetry is not None:
        for snapshot in snapshots:
            if snapshot is not None:
                telemetry.merge(snapshot)
    return [result for chunk in ordered if chunk is not None for result in chunk]


class ParallelCampaignRunner:
    """Runs a :class:`~repro.injection.campaign.Campaign` on a process pool.

    Args:
        campaign: The campaign to run.
        workers: Worker process count (default: one per CPU).
        chunk_size: Cells per dispatched chunk (default:
            :func:`resolve_chunk_size`).
        batch_size: Lockstep batch width *within* each worker (> 1 steps
            that many of a chunk's runs through the kernel together; see
            :class:`repro.kernel.BatchRunner`).  Orthogonal to ``workers``
            — the pool scales across cores, the batch amortises per-step
            dispatch within one core.  A chunk is what one worker
            batches, so the default chunks hold a full batch whenever
            the grid has ``workers * batch_size`` cells or more.
        supervision: Fault-tolerance policy
            (:class:`repro.resilience.SupervisionPolicy`).  When given,
            dispatch goes through the supervised executor: per-chunk
            timeouts, seeded retry/backoff, dead-worker respawn,
            poison-task quarantine and graceful degradation — results
            stay bit-identical to a plain run.
        chaos: Deterministic fault-injection policy installed in the
            workers (:class:`repro.resilience.ChaosPolicy`; testing
            only).  Implies supervision.
        checkpoint_path: Crash-safe campaign checkpoint
            (:class:`repro.resilience.CampaignCheckpoint`); a rerun
            resumes paying only for unfinished cells.  Implies
            supervision.
    """

    def __init__(
        self,
        campaign: "Campaign",
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        batch_size: Optional[int] = None,
        supervision: Optional["SupervisionPolicy"] = None,
        chaos: Optional["ChaosPolicy"] = None,
        checkpoint_path: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
        recorder: Optional["FlightRecorderConfig"] = None,
    ):
        self.campaign = campaign
        self.workers = max(1, workers if workers is not None else default_worker_count())
        self.chunk_size = chunk_size
        self.batch_size = batch_size
        self.supervision = supervision
        self.chaos = chaos
        self.checkpoint_path = checkpoint_path
        self.telemetry = telemetry
        self.recorder = recorder

    def run(self, progress: Optional[ProgressCallback] = None) -> List[RunResult]:
        """Run the whole campaign; results are in sequential cell order.

        Under supervision (``supervision``/``chaos``/``checkpoint_path``
        set) quarantined cells are withheld from the returned list; use
        :func:`repro.resilience.run_supervised_campaign` directly for
        the full :class:`~repro.resilience.SupervisedOutcome`.
        """
        global _FORK_CAMPAIGN
        if (
            self.supervision is not None
            or self.chaos is not None
            or self.checkpoint_path is not None
        ):
            from repro.resilience.supervisor import run_supervised_campaign

            outcome = run_supervised_campaign(
                self.campaign,
                policy=self.supervision,
                workers=self.workers,
                chunk_size=self.chunk_size,
                batch_size=self.batch_size,
                progress=progress,
                chaos=self.chaos,
                checkpoint_path=self.checkpoint_path,
                telemetry=self.telemetry,
                recorder=self.recorder,
            )
            return outcome.completed_results
        telemetry = self.telemetry
        cells = list(self.campaign.cells())
        total = len(cells)
        if total == 0:
            return []
        if self.workers == 1 or total == 1:
            # In-process fallback: identical code path to Campaign.run().
            batch_size = self.batch_size
            if batch_size is not None and batch_size > 1 and total > 1:
                from repro.kernel.batch import run_batched

                tasks = [self.campaign.cell_task(cell) for cell in cells]
                return run_batched(
                    tasks,
                    batch_size=batch_size,
                    progress=progress,
                    telemetry=telemetry,
                    recorder=self.recorder,
                )
            results = []
            for index, cell in enumerate(cells, start=1):
                results.append(
                    self.campaign.run_cell(
                        cell, telemetry=telemetry, recorder=self.recorder
                    )
                )
                if progress is not None:
                    progress(index, total)
            return results

        chunk_size = resolve_chunk_size(total, self.workers, self.batch_size, self.chunk_size)
        chunks = list(enumerate(_chunked(cells, chunk_size)))
        context, forked = _pool_context()
        worker_telemetry = telemetry.worker_config() if telemetry is not None else None
        if forked:
            # Forked workers inherit the campaign object (works for any
            # strategy factory, including closures); non-fork platforms
            # pickle it through the initializer instead.
            _FORK_CAMPAIGN = self.campaign
            initargs: tuple = (None, self.batch_size, worker_telemetry, self.recorder)
        else:
            initargs = (self.campaign, self.batch_size, worker_telemetry, self.recorder)
        try:
            return _dispatch(
                _run_cells,
                chunks,
                total,
                self.workers,
                progress,
                context,
                initializer=_init_worker,
                initargs=initargs,
                telemetry=telemetry,
            )
        finally:
            _FORK_CAMPAIGN = None


def run_simulations(
    tasks: Sequence[SimulationTask],
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    batch_size: Optional[int] = None,
    supervision: Optional["SupervisionPolicy"] = None,
    chaos: Optional["ChaosPolicy"] = None,
    checkpoint_path: Optional[str] = None,
    telemetry: Optional[Telemetry] = None,
    cache: Optional["RunCache"] = None,
    recorder: Optional["FlightRecorderConfig"] = None,
    journal: Optional["EventJournal"] = None,
) -> List[RunResult]:
    """Run independent ``(SimulationConfig, strategy)`` pairs, optionally
    in parallel and/or lockstep-batched, preserving input order.

    Used by the Table IV grid (every strategy's cells in one list) and
    the Figure 8 parameter-space sweep.  Unlike the campaign runner
    (whose strategy *factory* is inherited by forked workers), the tasks
    themselves are pickled to the pool, so strategy objects must be
    picklable whenever more than one task runs with ``workers > 1``.

    ``batch_size > 1`` steps that many runs through the kernel together
    (per worker, when combined with ``workers > 1``); results are
    bit-identical to sequential execution.  Batched execution keeps many
    runs live at once, so each task needs its own strategy instance — the
    batch runner rejects shared strategy objects loudly.

    ``supervision``, ``chaos`` or ``checkpoint_path`` route the dispatch
    through :func:`repro.resilience.run_supervised_simulations`
    (timeouts, retry, quarantine, crash-safe resume); quarantined tasks
    are withheld from the returned list.

    ``cache`` (:class:`repro.service.RunCache`) serves every task the
    content-addressed cache already holds and pays (then stores) only
    the misses; the returned list stays bit-identical to an uncached
    run.  Cache hits count toward ``progress`` up front.

    ``recorder`` (:class:`repro.obs.FlightRecorderConfig`) arms the
    per-run flight recorder in every execution mode (sequential,
    batched, pooled, supervised); ``journal``
    (:class:`repro.obs.EventJournal` or a bound view) receives the
    supervisor's and the cache's causal events — it stays in this
    process and is never pickled to workers.
    """
    tasks = list(tasks)
    if supervision is not None or chaos is not None or checkpoint_path is not None:
        from repro.resilience.supervisor import run_supervised_simulations

        outcome = run_supervised_simulations(
            tasks,
            policy=supervision,
            workers=workers,
            chunk_size=chunk_size,
            batch_size=batch_size,
            progress=progress,
            chaos=chaos,
            checkpoint_path=checkpoint_path,
            telemetry=telemetry,
            cache=cache,
            recorder=recorder,
            journal=journal,
        )
        return outcome.completed_results
    total = len(tasks)
    if total == 0:
        return []
    if cache is not None:
        from repro.service.cache import partition_tasks

        cache = cache.with_journal(journal)
        cached, pending, keys = partition_tasks(tasks, cache)
        sub_progress: Optional[ProgressCallback] = None
        if progress is not None:
            if cached:
                progress(len(cached), total)
            hits = len(cached)
            sub_progress = lambda completed, _total: progress(hits + completed, total)  # noqa: E731
        fresh: dict = {}
        if pending:
            computed = run_simulations(
                [tasks[index] for index in pending],
                workers=workers,
                chunk_size=chunk_size,
                progress=sub_progress,
                batch_size=batch_size,
                telemetry=telemetry,
                recorder=recorder,
                journal=journal,
            )
            for index, result in zip(pending, computed):
                fresh[index] = result
                key = keys[index]
                if key is not None:
                    cache.put(key, result)
        return [cached[i] if i in cached else fresh[i] for i in range(total)]
    workers = max(1, workers if workers is not None else 1)
    if workers == 1 or total == 1:
        if batch_size is not None and batch_size > 1 and total > 1:
            from repro.kernel.batch import run_batched

            return run_batched(
                tasks,
                batch_size=batch_size,
                progress=progress,
                telemetry=telemetry,
                recorder=recorder,
            )
        results = []
        for index, (config, strategy) in enumerate(tasks, start=1):
            try:
                results.append(
                    run_simulation(
                        config, strategy, telemetry=telemetry, recorder=recorder
                    )
                )
            except Exception as error:
                raise TaskExecutionError.wrap(
                    task_fingerprint(config, strategy), error
                ) from error
            if progress is not None:
                progress(index, total)
        return results

    chunk_size = resolve_chunk_size(total, workers, batch_size, chunk_size)
    chunks = list(enumerate(_chunked(tasks, chunk_size)))
    context, _ = _pool_context()
    worker_telemetry = telemetry.worker_config() if telemetry is not None else None
    return _dispatch(
        _run_tasks,
        chunks,
        total,
        workers,
        progress,
        context,
        initializer=_init_task_worker,
        initargs=(batch_size, worker_telemetry, recorder),
        telemetry=telemetry,
    )
