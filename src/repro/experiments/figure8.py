"""Figure 8: attack parameter space (start time × duration) for the
Acceleration attack type.

The paper samples random (start time, duration) pairs and marks which
simulations result in hazards, showing that (1) a *critical time window*
exists — attacks started outside it never cause a hazard regardless of
duration, (2) attacks need a minimum duration, and (3) the Context-Aware
points all fall inside the critical window and all result in hazards.
"""

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.cache import RunCache
    from repro.telemetry import Telemetry

from repro.core.attack_types import AttackType
from repro.core.strategies import ContextAwareStrategy, RandomStartDurationStrategy
from repro.injection.engine import SimulationConfig
from repro.resilience.supervisor import SupervisionPolicy, run_supervised_simulations


@dataclass(frozen=True)
class ParameterSpacePoint:
    """One attack simulation in the (start time, duration) plane."""

    start_time: float
    duration: float
    hazard: bool
    strategy: str


@dataclass
class Figure8Result:
    """All sampled points plus the Context-Aware reference points."""

    points: List[ParameterSpacePoint] = field(default_factory=list)
    scenario: str = "S1"
    initial_distance: float = 70.0
    attack_type: AttackType = AttackType.ACCELERATION

    def random_points(self) -> List[ParameterSpacePoint]:
        return [point for point in self.points if point.strategy != ContextAwareStrategy.name]

    def context_aware_points(self) -> List[ParameterSpacePoint]:
        return [point for point in self.points if point.strategy == ContextAwareStrategy.name]

    def critical_window(self) -> Optional[Tuple[float, float]]:
        """Start-time range outside of which no random attack caused a hazard."""
        hazardous = [p.start_time for p in self.random_points() if p.hazard]
        if not hazardous:
            return None
        return (min(hazardous), max(hazardous))

    def context_aware_hazard_rate(self) -> float:
        points = self.context_aware_points()
        if not points:
            return 0.0
        return sum(point.hazard for point in points) / len(points)

    def format(self) -> str:
        window = self.critical_window()
        window_text = "none (no random attack caused a hazard)"
        if window is not None:
            window_text = f"[{window[0]:.1f} s, {window[1]:.1f} s]"
        random_points = self.random_points()
        hazard_rate = (
            sum(point.hazard for point in random_points) / len(random_points)
            if random_points
            else 0.0
        )
        lines = [
            f"Figure 8 — parameter space for {self.attack_type.value} attacks "
            f"({self.scenario} @ {self.initial_distance:.0f} m)",
            f"random samples: {len(random_points)} (hazard rate {100 * hazard_rate:.0f}%)",
            f"critical start-time window: {window_text}",
            f"Context-Aware samples: {len(self.context_aware_points())} "
            f"(hazard rate {100 * self.context_aware_hazard_rate():.0f}%)",
        ]
        return "\n".join(lines)


def run_figure8(
    scenario: str = "S1",
    initial_distance: float = 70.0,
    attack_type: AttackType = AttackType.ACCELERATION,
    start_times: Optional[np.ndarray] = None,
    durations: Optional[np.ndarray] = None,
    context_aware_seeds: Optional[List[int]] = None,
    seed: int = 7,
    workers: Optional[int] = None,
    batch_size: Optional[int] = None,
    supervision: Optional[SupervisionPolicy] = None,
    telemetry: Optional["Telemetry"] = None,
    cache: Optional["RunCache"] = None,
) -> Figure8Result:
    """Sweep (start time, duration) for one attack type plus Context-Aware runs.

    Args:
        scenario / initial_distance / attack_type: The grid cell to sweep.
        start_times: Start times for the grid (default 5..35 s, step 3 s).
        durations: Durations for the grid (default 0.5..2.5 s, step 0.5 s).
        context_aware_seeds: Seeds for the Context-Aware reference runs.
        seed: Base seed for the sweep runs.
        workers: Worker processes for the sweep (> 1 fans the independent
            simulations out over the process pool; the points are
            identical to a sequential sweep).
        batch_size: Lockstep batch width per chunk (> 1 steps that many
            sweep runs through the kernel together; identical points,
            higher per-core throughput).
        supervision: Fault-tolerance policy for the sweep
            (:class:`repro.resilience.SupervisionPolicy`); a quarantined
            point is left out of the figure.
        telemetry: Optional :class:`~repro.telemetry.Telemetry` handle
            recording the sweep's run metrics and sampled stage timings.
        cache: Optional shared run cache
            (:class:`repro.service.RunCache`) consulted per point before
            simulating; a warm rerun of the same sweep pays for nothing,
            and an interrupted one only for the points it had not run.
    """
    start_times = start_times if start_times is not None else np.arange(5.0, 36.0, 3.0)
    durations = durations if durations is not None else np.arange(0.5, 2.6, 0.5)
    context_aware_seeds = context_aware_seeds if context_aware_seeds is not None else [1, 2, 3, 4]

    result = Figure8Result(
        scenario=scenario, initial_distance=initial_distance, attack_type=attack_type
    )

    grid = []
    tasks = []
    for index, start in enumerate(np.atleast_1d(start_times)):
        for jndex, duration in enumerate(np.atleast_1d(durations)):
            strategy = RandomStartDurationStrategy(
                start_range=(float(start), float(start)),
                duration_range=(float(duration), float(duration)),
            )
            config = SimulationConfig(
                scenario=scenario,
                initial_distance=initial_distance,
                seed=seed + 1000 * index + jndex,
                attack_type=attack_type,
                driver_enabled=True,
            )
            grid.append((float(start), float(duration), strategy.name))
            tasks.append((config, strategy))
    for ca_seed in context_aware_seeds:
        config = SimulationConfig(
            scenario=scenario,
            initial_distance=initial_distance,
            seed=ca_seed,
            attack_type=attack_type,
            driver_enabled=True,
        )
        tasks.append((config, ContextAwareStrategy()))

    # Index-aligned (None where a poison task was quarantined), so the
    # grid zip below stays correct even with holes.
    runs = run_supervised_simulations(
        tasks,
        policy=supervision,
        workers=workers,
        batch_size=batch_size,
        telemetry=telemetry,
        cache=cache,
    ).results

    for (start, duration, strategy_name), run in zip(grid, runs):
        if run is None:
            continue
        result.points.append(
            ParameterSpacePoint(
                start_time=start,
                duration=duration,
                hazard=run.hazard_occurred,
                strategy=strategy_name,
            )
        )
    for run in runs[len(grid):]:
        if run is None or run.attack_activation_time is None:
            continue
        result.points.append(
            ParameterSpacePoint(
                start_time=run.attack_activation_time,
                duration=run.attack_duration or 0.0,
                hazard=run.hazard_occurred,
                strategy=ContextAwareStrategy.name,
            )
        )
    return result
