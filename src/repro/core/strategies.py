"""Attack strategies (Table III of the paper).

A strategy decides *when* an attack is activated, for *how long* it stays
active, and *which values* are injected:

===================  ==================  ==================  ==========
Strategy             Start time          Duration            Values
===================  ==================  ==================  ==========
Random-ST+DUR        Uniform [5, 40] s   Uniform [0.5,2.5] s Fixed
Random-ST            Uniform [5, 40] s   2.5 s               Fixed
Random-DUR           Context-Aware       Uniform [0.5,2.5] s Fixed
Context-Aware        Context-Aware       Context-Aware       Strategic
===================  ==================  ==================  ==========

"Fixed" values are OpenPilot's output maxima; "Strategic" values are
chosen dynamically by the value-corruption optimiser (Eq. 1–3).
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.attack_types import AttackSpec, ControlAction
from repro.core.context_matcher import ContextMatch
from repro.core.corruption import CorruptionMode


@dataclass(frozen=True)
class ActivationDecision:
    """The strategy's decision to activate the attack now."""

    activate: bool
    steer_direction: int = 0   # resolved steering direction for this run
    reason: str = ""


#: The shared "not now" decision (decisions are frozen, so one instance
#: serves every poll that does not activate).
NO_ACTIVATION = ActivationDecision(activate=False)


class AttackStrategy:
    """Base class for attack strategies."""

    #: Human-readable strategy name (matches the paper's Table III).
    name: str = "abstract"
    #: How injected values are chosen.
    corruption_mode: CorruptionMode = CorruptionMode.FIXED
    #: Whether activation waits for a critical context.
    context_triggered: bool = False

    def prepare(self, rng: np.random.Generator) -> None:
        """Sample any per-run random parameters (start time, duration...)."""

    def should_activate(
        self, time: float, spec: AttackSpec, matches: Sequence[ContextMatch]
    ) -> ActivationDecision:
        """Decide whether to activate the attack at ``time``.

        ``matches`` are the context rules matched at ``time``.  The
        attack engine evaluates them only if the strategy reads them, so
        read them during this call or not at all.
        """
        raise NotImplementedError

    def should_deactivate(
        self, time: float, activation_time: float, hazard_occurred: bool
    ) -> bool:
        """Decide whether an active attack should stop at ``time``."""
        raise NotImplementedError

    # -- helpers shared by the concrete strategies -------------------------

    @staticmethod
    def _resolve_steer_direction(
        spec: AttackSpec,
        matches: Sequence[ContextMatch],
        rng: Optional[np.random.Generator],
        default: int,
    ) -> int:
        """Pick the steering ramp direction for this activation."""
        if not spec.corrupts_steering:
            return 0
        if spec.steer_direction != 0:
            return spec.steer_direction
        for match in matches:
            if match.action is ControlAction.STEER_LEFT:
                return +1
            if match.action is ControlAction.STEER_RIGHT:
                return -1
        if default != 0:
            return default
        if rng is not None:
            return int(rng.choice((-1, +1)))
        return -1


class NoAttackStrategy(AttackStrategy):
    """Baseline: never attack (the paper's "No Attacks" row)."""

    name = "No-Attack"
    corruption_mode = CorruptionMode.FIXED
    context_triggered = False

    def should_activate(self, time, spec, matches) -> ActivationDecision:
        return NO_ACTIVATION

    def should_deactivate(self, time, activation_time, hazard_occurred) -> bool:
        return True


class RandomStartDurationStrategy(AttackStrategy):
    """Random start time and random duration, fixed injection values."""

    name = "Random-ST+DUR"
    corruption_mode = CorruptionMode.FIXED
    context_triggered = False

    def __init__(
        self,
        start_range: Sequence[float] = (5.0, 40.0),
        duration_range: Sequence[float] = (0.5, 2.5),
    ):
        self.start_range = tuple(start_range)
        self.duration_range = tuple(duration_range)
        self.start_time: Optional[float] = None
        self.duration: Optional[float] = None
        self._steer_default = 0

    def prepare(self, rng: np.random.Generator) -> None:
        self.start_time = float(rng.uniform(*self.start_range))
        self.duration = float(rng.uniform(*self.duration_range))
        self._steer_default = int(rng.choice((-1, +1)))

    def should_activate(self, time, spec, matches) -> ActivationDecision:
        if self.start_time is None:
            raise RuntimeError("strategy used before prepare()")
        if time < self.start_time:
            return NO_ACTIVATION
        direction = self._resolve_steer_direction(spec, matches, None, self._steer_default)
        return ActivationDecision(activate=True, steer_direction=direction, reason="timer")

    def should_deactivate(self, time, activation_time, hazard_occurred) -> bool:
        return time - activation_time >= self.duration


class RandomStartStrategy(RandomStartDurationStrategy):
    """Random start time, fixed 2.5 s duration (the driver reaction time)."""

    name = "Random-ST"

    def __init__(self, start_range: Sequence[float] = (5.0, 40.0), duration: float = 2.5):
        super().__init__(start_range=start_range, duration_range=(duration, duration))

    def prepare(self, rng: np.random.Generator) -> None:
        super().prepare(rng)
        self.duration = self.duration_range[0]


class RandomDurationStrategy(AttackStrategy):
    """Context-aware start time, random duration, fixed injection values."""

    name = "Random-DUR"
    corruption_mode = CorruptionMode.FIXED
    context_triggered = True

    def __init__(self, duration_range: Sequence[float] = (0.5, 2.5)):
        self.duration_range = tuple(duration_range)
        self.duration: Optional[float] = None
        self._steer_default = 0

    def prepare(self, rng: np.random.Generator) -> None:
        self.duration = float(rng.uniform(*self.duration_range))
        self._steer_default = int(rng.choice((-1, +1)))

    def should_activate(self, time, spec, matches) -> ActivationDecision:
        if self.duration is None:
            raise RuntimeError("strategy used before prepare()")
        relevant = [match for match in matches if match.action in spec.actions]
        if not relevant:
            return NO_ACTIVATION
        direction = self._resolve_steer_direction(spec, relevant, None, self._steer_default)
        return ActivationDecision(
            activate=True,
            steer_direction=direction,
            reason=f"rule{relevant[0].rule.rule_id}",
        )

    def should_deactivate(self, time, activation_time, hazard_occurred) -> bool:
        return time - activation_time >= self.duration


class ScheduledAttackStrategy(RandomStartDurationStrategy):
    """A fully determined (start time, duration) attack schedule.

    The degenerate case of Random-ST+DUR where both sampling ranges have
    collapsed to a point: :meth:`prepare` still draws from the run RNG
    (so the steering-direction tie-break stays seed-deterministic), but
    the schedule itself is exactly the constructor arguments.  This is
    the decode target of the attack-parameter search
    (:mod:`repro.search.space`), where an optimizer proposes concrete
    schedules instead of sampling them.
    """

    name = "Scheduled"

    def __init__(self, start_time: float, duration: float):
        if start_time < 0.0:
            raise ValueError("scheduled start_time must be non-negative")
        if duration <= 0.0:
            raise ValueError("scheduled duration must be positive")
        super().__init__(
            start_range=(start_time, start_time), duration_range=(duration, duration)
        )


class ContextAwareStrategy(AttackStrategy):
    """The paper's Context-Aware strategy.

    Starts the attack when a critical context for the attack type is
    matched, keeps it active until a hazard occurs (or a cap is reached),
    and injects strategically chosen values that evade the ADAS safety
    checks and the driver's perception.
    """

    name = "Context-Aware"
    corruption_mode = CorruptionMode.STRATEGIC
    context_triggered = True

    def __init__(self, max_duration: float = 12.0, stop_on_hazard: bool = True):
        self.max_duration = max_duration
        self.stop_on_hazard = stop_on_hazard
        self._steer_default = 0

    def prepare(self, rng: np.random.Generator) -> None:
        self._steer_default = int(rng.choice((-1, +1)))

    def should_activate(self, time, spec, matches) -> ActivationDecision:
        relevant = [match for match in matches if match.action in spec.actions]
        if not relevant:
            return NO_ACTIVATION
        direction = self._resolve_steer_direction(spec, relevant, None, self._steer_default)
        return ActivationDecision(
            activate=True,
            steer_direction=direction,
            reason=f"rule{relevant[0].rule.rule_id}",
        )

    def should_deactivate(self, time, activation_time, hazard_occurred) -> bool:
        if self.stop_on_hazard and hazard_occurred:
            return True
        return time - activation_time >= self.max_duration


def strategy_by_name(name: str) -> AttackStrategy:
    """Construct a fresh strategy instance from its Table III name."""
    factories = {
        NoAttackStrategy.name: NoAttackStrategy,
        RandomStartDurationStrategy.name: RandomStartDurationStrategy,
        RandomStartStrategy.name: RandomStartStrategy,
        RandomDurationStrategy.name: RandomDurationStrategy,
        ContextAwareStrategy.name: ContextAwareStrategy,
    }
    try:
        return factories[name]()
    except KeyError:
        known = ", ".join(sorted(factories))
        raise KeyError(f"unknown strategy {name!r}; known strategies: {known}") from None
