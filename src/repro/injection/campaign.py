"""Experiment campaigns: sweeps over the paper's experiment grid.

The paper's grid is: 4 driving scenarios × 3 initial distances × 6 attack
types × 20 repetitions = 1,440 simulations per strategy (14,400 for the
Random-ST+DUR baseline, which uses more repetitions to cover the random
parameter space).  :class:`Campaign` runs an arbitrary subset of that grid
with deterministic per-run seeding and returns the :class:`RunResult`
records for aggregation.
"""

from contextlib import nullcontext
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ContextManager,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.analysis.metrics import RunResult
from repro.core.attack_types import AttackType
from repro.core.strategies import AttackStrategy, strategy_by_name
from repro.injection.engine import SimulationConfig
from repro.sim.scenarios import INITIAL_DISTANCES, Scenario
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.resilience.chaos import ChaosPolicy
    from repro.resilience.supervisor import SupervisionPolicy
    from repro.service.cache import RunCache

StrategyFactory = Callable[[], AttackStrategy]
SimulationTask = Tuple[SimulationConfig, Optional[AttackStrategy]]

#: A grid scenario: a name resolved through the catalog, or a fully built
#: spec (e.g. drawn from :class:`repro.scenarios.ScenarioSampler`).
ScenarioLike = Union[str, Scenario]

ALL_ATTACK_TYPES: Tuple[AttackType, ...] = tuple(AttackType)


@dataclass(frozen=True)
class CampaignConfig:
    """Configuration of one campaign (one strategy over a grid).

    Attributes:
        strategy_name: Table III strategy name (used for seeding and in
            the results); the actual strategy object comes from
            ``strategy_factory`` or :func:`strategy_by_name`.
        scenarios: Scenarios to include: catalog names and/or fully built
            :class:`~repro.sim.scenarios.Scenario` objects (e.g. sampled
            parametric variants).
        initial_distances: Initial gaps (m) to include; a ``None`` entry
            keeps each scenario's own gap.
        attack_types: Attack types to include (``()`` for attack-free runs).
        repetitions: Repetitions per grid cell.
        driver_enabled: Whether the simulated driver is in the loop.
        master_seed: Seed from which all per-run seeds are derived.
        max_steps: Steps per simulation.
    """

    strategy_name: str = "Context-Aware"
    scenarios: Sequence[ScenarioLike] = ("S1", "S2", "S3", "S4")
    initial_distances: Sequence[Optional[float]] = INITIAL_DISTANCES
    attack_types: Sequence[AttackType] = ALL_ATTACK_TYPES
    repetitions: int = 20
    driver_enabled: bool = True
    master_seed: int = 2022
    max_steps: int = 5000

    @property
    def total_runs(self) -> int:
        cells = len(self.scenarios) * len(self.initial_distances) * max(1, len(self.attack_types))
        return cells * self.repetitions


@dataclass(frozen=True)
class CampaignCell:
    """One cell of the campaign grid."""

    scenario: ScenarioLike
    initial_distance: Optional[float]
    attack_type: Optional[AttackType]
    repetition: int
    seed: int


class Campaign:
    """Enumerates and runs a campaign grid."""

    def __init__(
        self,
        config: CampaignConfig,
        strategy_factory: Optional[StrategyFactory] = None,
    ):
        self.config = config
        self.strategy_factory = strategy_factory or (
            lambda: strategy_by_name(config.strategy_name)
        )

    def cells(self) -> Iterator[CampaignCell]:
        """Yield every grid cell with its deterministic seed."""
        config = self.config
        attack_types: Sequence[Optional[AttackType]] = (
            list(config.attack_types) if config.attack_types else [None]
        )
        # Seeds derived deterministically from the master seed and the cell
        # index, so any cell can be re-run in isolation.
        index = 0
        for scenario in config.scenarios:
            for distance in config.initial_distances:
                for attack_type in attack_types:
                    for repetition in range(config.repetitions):
                        seed_sequence = np.random.SeedSequence([config.master_seed, index])
                        seed = int(seed_sequence.generate_state(1)[0] % (2**31))
                        index += 1
                        yield CampaignCell(
                            scenario=scenario,
                            initial_distance=distance,
                            attack_type=attack_type,
                            repetition=repetition,
                            seed=seed,
                        )

    def cell_task(self, cell: CampaignCell) -> SimulationTask:
        """The ``(SimulationConfig, strategy)`` pair for one grid cell.

        Single place the cell → simulation mapping lives; each call
        builds a fresh strategy instance, which lockstep-batched
        execution requires.
        """
        config = SimulationConfig(
            scenario=cell.scenario,
            initial_distance=cell.initial_distance,
            seed=cell.seed,
            attack_type=cell.attack_type,
            driver_enabled=self.config.driver_enabled,
            max_steps=self.config.max_steps,
        )
        strategy = self.strategy_factory() if cell.attack_type is not None else None
        return config, strategy

    def tasks(self) -> List[SimulationTask]:
        """The campaign as its task list: one :meth:`cell_task` per cell,
        in cell order."""
        return [self.cell_task(cell) for cell in self.cells()]

    def run(
        self,
        progress: Optional[Callable[[int, int], None]] = None,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        batch_size: Optional[int] = None,
        supervision: Optional["SupervisionPolicy"] = None,
        chaos: Optional["ChaosPolicy"] = None,
        telemetry: Optional[Telemetry] = None,
        cache: Optional["RunCache"] = None,
    ) -> List[RunResult]:
        """Run the whole campaign: :meth:`tasks` through
        :func:`~repro.injection.executor.run_simulations`.

        Results are bit-identical whatever the worker count, batch width
        or chunking, because every cell's seed is derived from
        ``(master_seed, cell index)`` alone.

        Args:
            progress: Optional callback ``(completed, total)`` invoked
                after every accepted chunk of runs.
            workers: Worker process count (default 1: in-process).  The
                tasks are pickled to the pool, so the strategy factory
                must produce picklable strategies (the built-ins are).
            chunk_size: Cells per dispatched chunk (default:
                :func:`~repro.injection.executor.resolve_chunk_size`).
            batch_size: Lockstep batch width (> 1 steps that many runs
                of a chunk through the kernel together, amortising the
                per-step Python dispatch; see
                :class:`repro.kernel.BatchRunner`).  Composes with
                ``workers``: each pool worker batches its chunk.
            supervision: Fault-tolerance policy
                (:class:`repro.resilience.SupervisionPolicy`): per-chunk
                timeouts, seeded retry/backoff, dead-worker respawn,
                quarantine, graceful degradation.  Results stay
                bit-identical; quarantined cells are withheld from the
                returned list (use
                :func:`repro.resilience.run_supervised_simulations` on
                :meth:`tasks` for the report).  Without it the first
                failing cell raises, naming its fingerprint.
            chaos: Worker fault-injection policy (testing only); implies
                supervision.
            telemetry: Optional :class:`~repro.telemetry.Telemetry`
                handle; the campaign records run/CAN/hazard counters
                (and, sampled, per-stage timings) into it under one
                ``campaign`` span — in-process, batched and pooled runs
                merge to the same deterministic snapshot.
            cache: Optional shared run cache
                (:class:`repro.service.RunCache`): every cell the cache
                already holds is served without simulating, and fresh
                results are stored back under their content fingerprints
                as they complete, so rerunning an interrupted campaign on
                the same cache directory resumes it.  The returned list is
                bit-identical to an uncached run.
        """
        from repro.injection.executor import run_simulations

        tasks = self.tasks()
        span: ContextManager[Any] = nullcontext()
        if telemetry is not None:
            span = telemetry.span("campaign", mode="tasks", runs=len(tasks))
        with span:
            return run_simulations(
                tasks,
                workers=workers,
                chunk_size=chunk_size,
                progress=progress,
                batch_size=batch_size,
                supervision=supervision,
                chaos=chaos,
                telemetry=telemetry,
                cache=cache,
            )
