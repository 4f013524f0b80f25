"""Table IV: attack strategy comparison with an alert driver.

Reproduces the paper's comparison of the four attack strategies (plus the
attack-free baseline): per strategy, the fraction of runs with ADAS
alerts, with hazards, with accidents, with hazards-but-no-alerts, the
lane-invasion rate, and the mean/std Time-To-Hazard.
"""

import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

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
    checkpoint_dir: Optional[str] = None,
    telemetry: Optional["Telemetry"] = None,
    cache: Optional["RunCache"] = None,
) -> Table4Result:
    """Run the Table IV experiment grid and aggregate it.

    The whole table is one task list (each strategy's campaign cells in
    row order) run by a single dispatch, so one pool serves every
    strategy and a lockstep batch mixes runs of different strategies;
    the results are sliced back per strategy and equal a sequential run.

    Args:
        scale: Grid dimensions (defaults to the laptop-sized grid; use
            :meth:`ExperimentScale.full` for the paper-sized grid).
        strategies: Strategy classes to compare.  With ``workers > 1``
            their instances are pickled to the pool.
        attack_types: Attack types included in the grid.
        workers: Worker processes for the table (> 1 enables the
            parallel executor; results are identical to a sequential run).
        batch_size: Lockstep batch width per worker (> 1 steps that many
            runs through the kernel together; identical results, higher
            per-core throughput).
        supervision: Fault-tolerance policy for the table's dispatch
            (:class:`repro.resilience.SupervisionPolicy`); a quarantined
            run is left out of its own strategy's runs only.  Supervised
            chunks are sized for the largest strategy alone, as when
            each strategy ran as its own campaign.
        checkpoint_dir: Directory for the table's crash-safe checkpoint
            (one ``table4.json``); an interrupted table run resumed with
            the same directory pays only for unfinished runs.  Implies
            supervision.
        telemetry: Optional :class:`~repro.telemetry.Telemetry` handle
            recording every run of the table under one ``campaign`` span.
        cache: Optional shared run cache
            (:class:`repro.service.RunCache`); a warm rerun of the same
            grid pays for zero simulations and returns bit-identical
            results.
    """
    scale = scale or ExperimentScale.from_environment()
    campaigns = [
        Campaign(_campaign_for(strategy_cls, scale, attack_types), strategy_factory=strategy_cls)
        for strategy_cls in strategies
    ]
    tasks = [campaign.cell_task(cell) for campaign in campaigns for cell in campaign.cells()]
    options = dict(workers=workers, batch_size=batch_size, telemetry=telemetry, cache=cache)
    supervised = supervision is not None or checkpoint_dir is not None
    span = nullcontext()
    if telemetry is not None:
        span = telemetry.span(
            "campaign", mode="supervised" if supervised else "tasks", runs=len(tasks)
        )
    with span:
        if supervised:
            from repro.injection.executor import resolve_chunk_size
            from repro.resilience.supervisor import run_supervised_simulations

            checkpoint_path = None
            if checkpoint_dir is not None:
                os.makedirs(checkpoint_dir, exist_ok=True)
                checkpoint_path = os.path.join(checkpoint_dir, "table4.json")
            # Chunks bound what a crash re-pays (the checkpoint flushes
            # once per chunk) and what a poison run's retries cover, so
            # they stay as small as the largest strategy's own dispatch.
            largest = max((campaign.config.total_runs for campaign in campaigns), default=0)
            chunk_size = resolve_chunk_size(largest, max(1, workers or 1), batch_size)
            # Aligned to ``tasks``, with None where a run was quarantined.
            aligned = run_supervised_simulations(
                tasks,
                policy=supervision,
                chunk_size=chunk_size,
                checkpoint_path=checkpoint_path,
                **options,
            ).results
        else:
            from repro.injection.executor import run_simulations

            aligned = run_simulations(tasks, **options)
    result = Table4Result()
    offset = 0
    for campaign in campaigns:
        name = campaign.config.strategy_name
        end = offset + campaign.config.total_runs
        runs = [run for run in aligned[offset:end] if run is not None]
        offset = end
        result.runs[name] = runs
        result.summaries.append(summarize_strategy(name, runs))
    return result
