"""Table V: Context-Aware attacks with and without strategic value corruption.

For every attack type the experiment runs the Context-Aware strategy in
two modes — fixed (maximum) injection values and strategic value
corruption — each both with and without the simulated driver, so that the
driver's prevented hazards, newly introduced hazards and prevented
accidents can be computed from paired runs, as the paper's Table V does.
"""

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.analysis.metrics import RunResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.supervisor import SupervisionPolicy
    from repro.service.cache import RunCache
    from repro.telemetry import Telemetry
from repro.analysis.results import AttackTypeSummary, format_table_v, summarize_by_attack_type
from repro.core.corruption import CorruptionMode
from repro.core.strategies import ContextAwareStrategy
from repro.service.fingerprint import register_strategy_fingerprint
from repro.experiments.scale import ExperimentScale
from repro.injection.campaign import ALL_ATTACK_TYPES, Campaign, CampaignConfig


class ContextAwareFixedValueStrategy(ContextAwareStrategy):
    """Context-Aware activation/duration but fixed (maximum) injected values.

    This is the "No Strategic Value Corruption" column group of Table V:
    the start time and duration are still chosen from the safety context,
    but the injected values are OpenPilot's output maxima instead of the
    strategically bounded values.
    """

    name = "Context-Aware (fixed values)"
    corruption_mode = CorruptionMode.FIXED


# Same constructor surface as the parent, but a distinct class identity —
# the run cache must never serve a fixed-value run for a strategic one.
register_strategy_fingerprint(ContextAwareFixedValueStrategy, ("max_duration", "stop_on_hazard"))


@dataclass
class Table5Result:
    """Per-attack-type summaries for both corruption modes."""

    without_corruption: Dict[str, AttackTypeSummary] = field(default_factory=dict)
    with_corruption: Dict[str, AttackTypeSummary] = field(default_factory=dict)
    runs: Dict[str, List[RunResult]] = field(default_factory=dict)

    def format(self) -> str:
        return format_table_v(self.without_corruption, self.with_corruption)


def _run_mode(
    strategy_cls,
    scale: ExperimentScale,
    driver_enabled: bool,
    workers: Optional[int] = None,
    batch_size: Optional[int] = None,
    supervision: Optional["SupervisionPolicy"] = None,
    telemetry: Optional["Telemetry"] = None,
    cache: Optional["RunCache"] = None,
) -> List[RunResult]:
    config = CampaignConfig(
        strategy_name=strategy_cls.name,
        scenarios=scale.scenarios,
        initial_distances=scale.initial_distances,
        attack_types=ALL_ATTACK_TYPES,
        repetitions=scale.repetitions,
        driver_enabled=driver_enabled,
        master_seed=scale.master_seed,
    )
    return Campaign(config, strategy_factory=strategy_cls).run(
        workers=workers,
        batch_size=batch_size,
        supervision=supervision,
        telemetry=telemetry,
        cache=cache,
    )


def run_table5(
    scale: Optional[ExperimentScale] = None,
    workers: Optional[int] = None,
    batch_size: Optional[int] = None,
    supervision: Optional["SupervisionPolicy"] = None,
    telemetry: Optional["Telemetry"] = None,
    cache: Optional["RunCache"] = None,
) -> Table5Result:
    """Run the Table V experiment and aggregate it.

    Args:
        scale: Grid dimensions.
        workers: Worker processes per campaign (> 1 enables the process
            pool; results are identical to a sequential run).
        batch_size: Lockstep batch width per chunk (> 1 steps that many
            runs through the kernel together; identical results, higher
            per-core throughput).
        supervision: Fault-tolerance policy for each campaign.
        telemetry: Optional :class:`~repro.telemetry.Telemetry` handle;
            all four campaigns record into the same registry.
        cache: Optional shared run cache
            (:class:`repro.service.RunCache`) consulted by all four
            campaigns before simulating; rerunning an interrupted table
            on the same cache directory pays only for unfinished runs.
    """
    scale = scale or ExperimentScale.from_environment()
    result = Table5Result()
    for key, strategy_cls in (
        ("fixed", ContextAwareFixedValueStrategy),
        ("strategic", ContextAwareStrategy),
    ):
        with_driver = _run_mode(
            strategy_cls, scale, driver_enabled=True, workers=workers,
            batch_size=batch_size, supervision=supervision, telemetry=telemetry,
            cache=cache,
        )
        without_driver = _run_mode(
            strategy_cls, scale, driver_enabled=False, workers=workers,
            batch_size=batch_size, supervision=supervision, telemetry=telemetry,
            cache=cache,
        )
        result.runs[f"{key}/driver"] = with_driver
        result.runs[f"{key}/no-driver"] = without_driver
        summaries = summarize_by_attack_type(with_driver, without_driver)
        if key == "fixed":
            result.without_corruption = summaries
        else:
            result.with_corruption = summaries
    return result
