"""Table IV: attack strategy comparison with an alert driver.

Reproduces the paper's comparison of the four attack strategies (plus the
attack-free baseline): per strategy, the fraction of runs with ADAS
alerts, with hazards, with accidents, with hazards-but-no-alerts, the
lane-invasion rate, and the mean/std Time-To-Hazard.
"""

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ContextManager, Dict, List, Optional, Sequence

from repro.analysis.metrics import RunResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.supervisor import SupervisionPolicy
    from repro.service.cache import RunCache
    from repro.telemetry import Telemetry
from repro.analysis.results import StrategySummary, format_table_iv, summarize_strategy
from repro.core.strategies import (
    ContextAwareStrategy,
    NoAttackStrategy,
    RandomDurationStrategy,
    RandomStartDurationStrategy,
    RandomStartStrategy,
)
from repro.experiments.scale import ExperimentScale
from repro.injection.campaign import ALL_ATTACK_TYPES, Campaign, CampaignConfig

#: The strategies compared in Table IV, in the paper's row order.
TABLE4_STRATEGIES = (
    NoAttackStrategy,
    RandomStartDurationStrategy,
    RandomStartStrategy,
    RandomDurationStrategy,
    ContextAwareStrategy,
)


@dataclass
class Table4Result:
    """Aggregated Table IV rows plus the raw run results per strategy."""

    summaries: List[StrategySummary] = field(default_factory=list)
    runs: Dict[str, List[RunResult]] = field(default_factory=dict)

    def summary_for(self, strategy_name: str) -> StrategySummary:
        for summary in self.summaries:
            if summary.strategy == strategy_name:
                return summary
        raise KeyError(f"no summary for strategy {strategy_name!r}")

    def format(self) -> str:
        return format_table_iv(self.summaries)


def _campaign_for(
    strategy_cls, scale: ExperimentScale, attack_types: Sequence
) -> CampaignConfig:
    repetitions = scale.repetitions
    if strategy_cls is RandomStartDurationStrategy:
        repetitions = scale.random_st_dur_repetitions
    if strategy_cls is NoAttackStrategy:
        attack_types = ()
    return CampaignConfig(
        strategy_name=strategy_cls.name,
        scenarios=scale.scenarios,
        initial_distances=scale.initial_distances,
        attack_types=tuple(attack_types),
        repetitions=repetitions,
        driver_enabled=True,
        master_seed=scale.master_seed,
    )


def run_table4(
    scale: Optional[ExperimentScale] = None,
    strategies: Sequence = TABLE4_STRATEGIES,
    attack_types: Sequence = ALL_ATTACK_TYPES,
    workers: Optional[int] = None,
    batch_size: Optional[int] = None,
    supervision: Optional["SupervisionPolicy"] = None,
    telemetry: Optional["Telemetry"] = None,
    cache: Optional["RunCache"] = None,
) -> Table4Result:
    """Run the Table IV experiment grid and aggregate it.

    The whole table is one task list (each strategy's campaign tasks in
    row order) run by a single dispatch, so one pool serves every
    strategy and a lockstep batch mixes runs of different strategies;
    the results are grouped back per strategy by the name every run
    carries and equal a sequential run.

    Args:
        scale: Grid dimensions (defaults to the laptop-sized grid; use
            :meth:`ExperimentScale.full` for the paper-sized grid).
        strategies: Strategy classes to compare.  With ``workers > 1``
            their instances are pickled to the pool.
        attack_types: Attack types included in the grid.
        workers: Worker processes for the table (> 1 enables the
            process pool; results are identical to a sequential run).
        batch_size: Lockstep batch width per chunk (> 1 steps that many
            runs through the kernel together; identical results, higher
            per-core throughput).
        supervision: Fault-tolerance policy for the table's dispatch
            (:class:`repro.resilience.SupervisionPolicy`); a quarantined
            run is left out of its own strategy's runs only.
        telemetry: Optional :class:`~repro.telemetry.Telemetry` handle
            recording every run of the table under one ``campaign`` span.
        cache: Optional shared run cache
            (:class:`repro.service.RunCache`); a warm rerun of the same
            grid pays for zero simulations and returns bit-identical
            results, and a rerun of an interrupted table on the same
            cache directory pays only for the runs it had not finished.
    """
    from repro.injection.executor import run_simulations

    scale = scale or ExperimentScale.from_environment()
    campaigns = [
        Campaign(_campaign_for(strategy_cls, scale, attack_types), strategy_factory=strategy_cls)
        for strategy_cls in strategies
    ]
    tasks = [task for campaign in campaigns for task in campaign.tasks()]
    span: ContextManager[Any] = nullcontext()
    if telemetry is not None:
        span = telemetry.span("campaign", mode="tasks", runs=len(tasks))
    with span:
        runs = run_simulations(
            tasks,
            workers=workers,
            batch_size=batch_size,
            supervision=supervision,
            telemetry=telemetry,
            cache=cache,
        )
    by_strategy: Dict[str, List[RunResult]] = {
        campaign.config.strategy_name: [] for campaign in campaigns
    }
    for run in runs:
        by_strategy[run.strategy].append(run)
    result = Table4Result()
    for name, strategy_runs in by_strategy.items():
        result.runs[name] = strategy_runs
        result.summaries.append(summarize_strategy(name, strategy_runs))
    return result
