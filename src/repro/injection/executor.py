"""Fan-out of independent simulations: the one dispatch entry point.

The paper's headline results each sweep a grid of 1,440 simulations per
strategy (14,400 for the Random-ST+DUR baseline).  Every grid cell is an
independent simulation whose seed is derived deterministically from
``(master_seed, cell index)``, so a campaign is its list of
``(SimulationConfig, strategy)`` tasks (``Campaign.tasks()``) and is
embarrassingly parallel: the results of a pooled or lockstep-batched
run are **bit-identical** to a sequential run of the same tasks — the
determinism tests in ``tests/integration/test_parallel_campaign.py``
pin this property.

:func:`run_simulations` is the fan-out every caller uses (campaigns,
the Table IV/V grids, the Figure 8 sweep, the search driver and the
campaign service).  It returns the completed results of
:func:`repro.resilience.supervisor.run_supervised_simulations`, the one
task loop: run cache, chunking, pool, payload validation, ordered
accept and, when a policy asks for it, recovery.

Performance
-----------

Workers are plain OS processes (``concurrent.futures``), so campaign
throughput scales near-linearly with physical cores until memory
bandwidth saturates.  Every dispatch cuts its work by one rule,
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

Tasks are pickled to the pool workers, so their strategy objects must
be picklable whenever more than one task runs with ``workers > 1`` (the
built-in strategies are).
"""

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.analysis.metrics import RunResult
from repro.core.strategies import AttackStrategy
from repro.injection.engine import SimulationConfig
from repro.resilience.supervisor import run_supervised_simulations
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.recorder import FlightRecorderConfig
    from repro.resilience.chaos import ChaosPolicy
    from repro.resilience.supervisor import SupervisionPolicy
    from repro.service.cache import RunCache

ProgressCallback = Callable[[int, int], None]
SimulationTask = Tuple[SimulationConfig, Optional[AttackStrategy]]

#: Most chunks a dispatch hands each worker (see :func:`resolve_chunk_size`).
_CHUNKS_PER_WORKER = 4


def resolve_chunk_size(
    total: int,
    workers: int,
    batch_size: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> int:
    """Tasks per dispatched chunk: the one chunking rule of every dispatch.

    An explicit ``chunk_size`` wins.  Otherwise unbatched dispatch cuts
    the work into ~4 chunks per worker, so stragglers rebalance while the
    per-chunk dispatch cost stays negligible.  Each chunk steps through
    its own lockstep batch, so batched dispatch (``batch_size > 1``)
    uses as many chunks per worker as full batches fit, between 1 and 4:
    each chunk holds a full batch whenever the work allows (100 tasks on
    2 workers at batch 16 give chunks of 17).
    """
    if chunk_size is not None:
        return max(1, chunk_size)
    per_worker = _CHUNKS_PER_WORKER
    if batch_size is not None and batch_size > 1:
        per_worker = min(_CHUNKS_PER_WORKER, max(1, total // (workers * batch_size)))
    return max(1, -(-total // (workers * per_worker)))


def _chunked(items: Sequence, chunk_size: int) -> List[Sequence]:
    return [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]


def run_simulations(
    tasks: Sequence[SimulationTask],
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    batch_size: Optional[int] = None,
    supervision: Optional["SupervisionPolicy"] = None,
    chaos: Optional["ChaosPolicy"] = None,
    telemetry: Optional[Telemetry] = None,
    cache: Optional["RunCache"] = None,
    recorder: Optional["FlightRecorderConfig"] = None,
) -> List[RunResult]:
    """Run independent ``(SimulationConfig, strategy)`` pairs, optionally
    on a process pool and/or lockstep-batched, preserving input order.

    The list-returning form of
    :func:`repro.resilience.supervisor.run_supervised_simulations`:
    quarantined tasks are withheld from the returned list (use that
    function for the aligned results and the
    :class:`~repro.resilience.ExecutionReport`).

    ``batch_size > 1`` steps that many runs of a chunk through the
    kernel together; results are bit-identical to sequential execution.
    Batched execution keeps many runs live at once, so each task needs
    its own strategy instance — the batch runner rejects shared strategy
    objects loudly.

    ``supervision`` (:class:`repro.resilience.SupervisionPolicy`) turns
    on recovery — retry, bisection, quarantine, timeouts, degradation;
    without it the first failure raises a
    :class:`~repro.resilience.TaskExecutionError` naming the failing
    task.  ``chaos`` injects worker faults (testing only) and implies
    the default policy.

    ``cache`` (:class:`repro.service.RunCache`) serves every task the
    content-addressed cache already holds and pays (then stores) only
    the misses, each as soon as its chunk is accepted; the returned list
    stays bit-identical to an uncached run.  Cache hits count toward
    ``progress`` up front.

    ``recorder`` (:class:`repro.obs.FlightRecorderConfig`) arms the
    per-run flight recorder in every chunk.  ``telemetry`` receives the
    supervisor's and the cache's events too, and journals them when an
    event journal is attached to it (correlated by
    :meth:`~repro.telemetry.Telemetry.bind`); the journal stays in this
    process and is never pickled to workers.
    """
    return run_supervised_simulations(
        tasks,
        policy=supervision,
        workers=workers,
        chunk_size=chunk_size,
        batch_size=batch_size,
        progress=progress,
        chaos=chaos,
        telemetry=telemetry,
        cache=cache,
        recorder=recorder,
    ).completed_results
