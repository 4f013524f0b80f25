"""Declarative search spaces over attack parameters.

A :class:`SearchSpace` is an ordered list of named dimensions plus a
*decoder* that turns one concrete point into the ``(SimulationConfig,
AttackStrategy)`` task the simulator runs.  Points live on the unit
hypercube, quantized to a fixed per-dimension grid, which buys three
properties the search driver depends on:

* **exact memoization** — two proposals that quantize to the same grid
  point are the same point, bit-for-bit, so the evaluation memo is a
  plain dict and never re-simulates a repeat;
* **seed stability** — the per-point simulation seeds are derived from
  the integer grid coordinates (:meth:`SearchSpace.key`), never from
  evaluation order, so sequential, process-pool and lockstep-batched
  evaluation of the same points use identical seeds;
* **exact round-trips** — :meth:`SearchSpace.from_key` rebuilds a point
  from its grid coordinates bit-for-bit.

:func:`attack_search_space` builds the canonical space of the paper's
attack knobs: attack type, activation schedule (or context-predicate
thresholds for the Context-Aware strategies), attack duration, corruption
magnitude via :class:`~repro.core.corruption.CorruptionLimits`, and —
when a :class:`~repro.scenarios.ScenarioFamily` is given — the scenario
parameters themselves.
"""

from dataclasses import dataclass, replace
from itertools import product
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.adas.limits import ISO_SAFETY_LIMITS, OPENPILOT_LIMITS, SafetyLimits
from repro.core.attack_engine import AttackTuning
from repro.core.attack_types import AttackType
from repro.core.corruption import CorruptionLimits
from repro.core.strategies import (
    AttackStrategy,
    ContextAwareStrategy,
    ScheduledAttackStrategy,
)
from repro.injection.engine import SimulationConfig
from repro.scenarios.sampler import ScenarioFamily
from repro.sim.scenarios import Scenario
from repro.sim.units import STEPS_PER_SIMULATION

#: A point: quantized unit-hypercube coordinates, one per dimension.
Point = Tuple[float, ...]

#: Integer grid coordinates of a point (exact, hashable, JSON-safe).
PointKey = Tuple[int, ...]

#: One unit of simulator work produced by decoding a point.
SearchTask = Tuple[SimulationConfig, Optional[AttackStrategy]]

#: A decoder maps (decoded parameter values, run seed) to a task.
Decoder = Callable[[Dict[str, Any], int], SearchTask]


@dataclass(frozen=True)
class Continuous:
    """A real-valued dimension, uniform over ``[low, high]``."""

    name: str
    low: float
    high: float

    def __post_init__(self):
        if not self.high > self.low:
            raise ValueError(f"dimension {self.name!r} requires high > low")

    def value(self, unit: float) -> float:
        return self.low + unit * (self.high - self.low)

    def unit(self, value: float) -> float:
        return (value - self.low) / (self.high - self.low)


@dataclass(frozen=True)
class Categorical:
    """A discrete dimension over an ordered tuple of choices."""

    name: str
    choices: Tuple[Any, ...]

    def __post_init__(self):
        if len(self.choices) < 2:
            raise ValueError(f"dimension {self.name!r} needs at least two choices")

    def value(self, unit: float) -> Any:
        index = min(int(unit * len(self.choices)), len(self.choices) - 1)
        return self.choices[index]

    def unit(self, value: Any) -> float:
        # Centre of the choice's bucket, so quantize -> value round-trips.
        return (self.choices.index(value) + 0.5) / len(self.choices)


Dimension = Union[Continuous, Categorical]


class SearchSpace:
    """An ordered, quantized parameter space with a task decoder.

    Args:
        dimensions: The ordered dimensions; point coordinate ``i``
            corresponds to ``dimensions[i]``.
        decoder: Maps ``(values dict, seed)`` to the simulation task.
            Every call must build **fresh** objects (in particular a fresh
            strategy instance): lockstep-batched evaluation keeps many
            decoded tasks live at once.
        name: Identifies the space in search results and experiment rows.
        resolution: Grid steps per unit interval; proposals are rounded
            to this grid before decoding, memoization or seeding.
    """

    def __init__(
        self,
        dimensions: Sequence[Dimension],
        decoder: Decoder,
        name: str = "search-space",
        resolution: int = 1024,
    ):
        if not dimensions:
            raise ValueError("a search space needs at least one dimension")
        names = [dimension.name for dimension in dimensions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate dimension names: {names}")
        if resolution < 2:
            raise ValueError("resolution must be >= 2")
        self.dimensions: Tuple[Dimension, ...] = tuple(dimensions)
        self.decoder = decoder
        self.name = name
        self.resolution = resolution

    @property
    def ndim(self) -> int:
        return len(self.dimensions)

    # -- points -------------------------------------------------------------

    def quantize(self, coordinates: Sequence[float]) -> Point:
        """Snap raw unit coordinates onto the space's grid."""
        if len(coordinates) != self.ndim:
            raise ValueError(
                f"expected {self.ndim} coordinates, got {len(coordinates)}"
            )
        resolution = self.resolution
        return tuple(
            min(max(round(float(c) * resolution), 0), resolution) / resolution
            for c in coordinates
        )

    def key(self, point: Point) -> PointKey:
        """Exact integer grid coordinates (memo keys, seed material)."""
        resolution = self.resolution
        return tuple(round(c * resolution) for c in point)

    def from_key(self, key: Sequence[int]) -> Point:
        """Rebuild the point from :meth:`key` output."""
        if len(key) != self.ndim:
            raise ValueError(f"expected {self.ndim} grid coordinates, got {len(key)}")
        return tuple(int(k) / self.resolution for k in key)

    def random_point(self, rng: np.random.Generator) -> Point:
        """One uniform point (quantized)."""
        return self.quantize(rng.random(self.ndim))

    # -- encode / decode ----------------------------------------------------

    def values(self, point: Point) -> Dict[str, Any]:
        """Decode a point into its named parameter values."""
        return {
            dimension.name: dimension.value(coordinate)
            for dimension, coordinate in zip(self.dimensions, point)
        }

    def point_from_values(self, values: Dict[str, Any]) -> Point:
        """Encode named parameter values back into a (quantized) point.

        The inverse of :meth:`values` up to grid quantization: decoding
        the returned point yields each continuous value rounded to the
        grid and each categorical value exactly.
        """
        missing = [d.name for d in self.dimensions if d.name not in values]
        if missing:
            raise KeyError(f"missing values for dimensions: {missing}")
        return self.quantize([d.unit(values[d.name]) for d in self.dimensions])

    def decode(self, point: Point, seed: int) -> SearchTask:
        """Build the ``(SimulationConfig, strategy)`` task for a point."""
        return self.decoder(self.values(point), seed)

    # -- exhaustive enumeration (the grid baseline) -------------------------

    def grid(self, steps: int) -> Iterator[Point]:
        """Yield the full product grid, ``steps`` levels per continuous
        dimension (categoricals enumerate every choice), in lexicographic
        dimension order — the exhaustive sweep a Table IV-style campaign
        performs, used as the baseline the optimizers must beat."""
        if steps < 2:
            raise ValueError("grid needs at least two steps per dimension")
        axes: List[List[float]] = []
        for dimension in self.dimensions:
            if isinstance(dimension, Categorical):
                n = len(dimension.choices)
                axes.append([(i + 0.5) / n for i in range(n)])
            else:
                axes.append([i / (steps - 1) for i in range(steps)])
        for coordinates in product(*axes):
            yield self.quantize(coordinates)

    def grid_size(self, steps: int) -> int:
        """Number of points :meth:`grid` yields for ``steps``."""
        size = 1
        for dimension in self.dimensions:
            size *= len(dimension.choices) if isinstance(dimension, Categorical) else steps
        return size


def _scaled_limits(base: SafetyLimits, magnitude: float) -> SafetyLimits:
    """Scale a limit set's injected magnitudes by ``magnitude``."""
    return SafetyLimits(
        accel_max=base.accel_max * magnitude,
        brake_min=base.brake_min * magnitude,
        steer_delta_max_deg=base.steer_delta_max_deg * magnitude,
        cruise_overspeed_factor=base.cruise_overspeed_factor,
    )


def attack_search_space(
    scenario: Union[str, Scenario] = "S1",
    attack_types: Sequence[AttackType] = (AttackType.DECELERATION,),
    context_aware: bool = False,
    family: Optional[ScenarioFamily] = None,
    start_range: Tuple[float, float] = (2.0, 40.0),
    duration_range: Tuple[float, float] = (0.5, 8.0),
    magnitude_range: Optional[Tuple[float, float]] = (0.4, 1.0),
    t_safe_range: Tuple[float, float] = (2.0, 3.0),
    driver_enabled: bool = True,
    max_steps: int = STEPS_PER_SIMULATION,
    resolution: int = 1024,
) -> SearchSpace:
    """The canonical attack-parameter search space.

    Dimensions (in order):

    * ``attack_type`` — categorical, only present when more than one
      attack type is given;
    * scheduled mode (default): ``start`` (activation time, s) and
      ``duration`` (s), decoded into a
      :class:`~repro.core.strategies.ScheduledAttackStrategy`;
    * context-aware mode (``context_aware=True``): ``t_safe``
      (context-table headway threshold, s) and ``duration`` (attack
      duration cap, s), decoded into a
      :class:`~repro.core.strategies.ContextAwareStrategy` plus an
      :class:`~repro.core.attack_engine.AttackTuning` carrying the
      threshold;
    * ``magnitude`` — scales both corruption limit sets between
      ``magnitude_range[0]`` and ``magnitude_range[1]`` times the
      OpenPilot / ISO maxima (omit by passing ``magnitude_range=None``);
    * ``scenario:<param>`` — one dimension per parameter of ``family``
      (sorted by name), decoded through the family's builder instead of
      the fixed ``scenario``.
    """
    attack_types = tuple(attack_types)
    if not attack_types:
        raise ValueError("attack_search_space needs at least one attack type")
    dimensions: List[Dimension] = []
    if len(attack_types) > 1:
        dimensions.append(Categorical("attack_type", attack_types))
    if context_aware:
        dimensions.append(Continuous("t_safe", *t_safe_range))
        dimensions.append(Continuous("duration", *duration_range))
    else:
        dimensions.append(Continuous("start", *start_range))
        dimensions.append(Continuous("duration", *duration_range))
    if magnitude_range is not None:
        dimensions.append(Continuous("magnitude", *magnitude_range))
    if family is not None:
        for key, bounds in sorted(family.parameters.items()):
            dimensions.append(Continuous(f"scenario:{key}", bounds.low, bounds.high))

    def decoder(values: Dict[str, Any], seed: int) -> SearchTask:
        attack_type = values.get("attack_type", attack_types[0])
        duration = values["duration"]
        strategy: AttackStrategy
        if context_aware:
            strategy = ContextAwareStrategy(max_duration=duration)
        else:
            strategy = ScheduledAttackStrategy(values["start"], duration)

        tuning: Optional[AttackTuning] = None
        magnitude = values.get("magnitude")
        t_safe = values.get("t_safe")
        if magnitude is not None or t_safe is not None:
            limits = CorruptionLimits()
            if magnitude is not None:
                limits = CorruptionLimits(
                    fixed=_scaled_limits(OPENPILOT_LIMITS, magnitude),
                    strategic=_scaled_limits(ISO_SAFETY_LIMITS, magnitude),
                )
            tuning = AttackTuning(corruption_limits=limits, t_safe=t_safe)

        run_scenario: Union[str, Scenario] = scenario
        if family is not None:
            params = {
                key[len("scenario:"):]: value
                for key, value in values.items()
                if key.startswith("scenario:")
            }
            run_scenario = family.build(f"{family.name}[search]", params)

        config = SimulationConfig(
            scenario=run_scenario,
            seed=seed,
            attack_type=attack_type,
            driver_enabled=driver_enabled,
            max_steps=max_steps,
            attack_tuning=tuning,
        )
        return config, strategy

    scenario_label = scenario if isinstance(scenario, str) else scenario.name
    if family is not None:
        scenario_label = f"{family.name}[*]"
    mode = "context-aware" if context_aware else "scheduled"
    # max_steps changes what a point *evaluates to* without changing any
    # dimension, so it is part of the space's name.
    return SearchSpace(
        dimensions,
        decoder,
        name=f"attack[{scenario_label}/{mode}/{max_steps}]",
        resolution=resolution,
    )


def with_safety_margin(task: SearchTask) -> SearchTask:
    """Copy of a task with min-TTC/min-gap margin tracking enabled."""
    config, strategy = task
    return replace(config, track_safety_margin=True), strategy
