"""The attack engine: ties eavesdropping, context inference, matching,
activation timing and value corruption together (Fig. 1 of the paper).

The engine is deployed as an *output hook* on the ADAS control stack — the
paper's injection point, where malware corrupts the output variables of
the control software just before they are sent to the actuators.  A
CAN-level deployment of the same engine is provided by
:class:`repro.core.can_tamper.CanAttackInterceptor`.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.attack_types import AttackSpec, AttackType, spec_for
from repro.core.context_matcher import ContextMatcher, DeferredMatches
from repro.core.context_table import ContextTable, default_context_table
from repro.core.corruption import CorruptionLimits, ValueCorruptor
from repro.core.eavesdropper import EavesdroppedData, Eavesdropper
from repro.core.state_inference import InferredContext, StateInference
from repro.core.strategies import AttackStrategy
from repro.messaging.bus import MessageBus
from repro.messaging.messages import CarState
from repro.sim.units import DT
from repro.sim.vehicle import ActuatorCommand


@dataclass(frozen=True)
class AttackTuning:
    """Per-run tuning of the attack engine beyond the strategy object.

    Bundles the knobs an attack-parameter search optimises that are not
    part of the :class:`~repro.core.strategies.AttackStrategy` itself:
    the corruption limit sets (injected magnitudes) and the context-table
    threshold parameters (when the Context-Aware strategies activate).
    Everything is a plain float / frozen dataclass, so a tuning travels
    inside a pickled :class:`~repro.injection.engine.SimulationConfig`
    to pool workers; ``None`` thresholds keep the defaults of
    :func:`~repro.core.context_table.default_context_table`.
    """

    corruption_limits: CorruptionLimits = CorruptionLimits()
    t_safe: Optional[float] = None
    beta1: Optional[float] = None
    beta2: Optional[float] = None
    edge_threshold: Optional[float] = None

    def build_context_table(self) -> ContextTable:
        """Table I with this tuning's thresholds (defaults where ``None``)."""
        kwargs = {}
        if self.t_safe is not None:
            kwargs["t_safe"] = self.t_safe
        if self.beta1 is not None:
            kwargs["beta1"] = self.beta1
        if self.beta2 is not None:
            kwargs["beta2"] = self.beta2
        if self.edge_threshold is not None:
            kwargs["edge_threshold"] = self.edge_threshold
        return default_context_table(**kwargs)


@dataclass
class AttackRecord:
    """Everything the analysis layer needs to know about one attack run."""

    attack_type: AttackType
    strategy_name: str
    activated: bool = False
    activation_time: Optional[float] = None
    deactivation_time: Optional[float] = None
    activation_reason: str = ""
    steer_direction: int = 0
    stopped_by_driver: bool = False
    injected_steps: int = 0

    @property
    def duration(self) -> Optional[float]:
        """Actual attack duration in seconds (None if never activated)."""
        if self.activation_time is None:
            return None
        if self.deactivation_time is None:
            return None
        return self.deactivation_time - self.activation_time


class AttackEngine:
    """Per-run attack orchestrator."""

    def __init__(
        self,
        message_bus: MessageBus,
        attack_type: AttackType,
        strategy: AttackStrategy,
        seed: int = 0,
        context_table: Optional[ContextTable] = None,
        corruption_limits: CorruptionLimits = CorruptionLimits(),
        dt: float = DT,
    ):
        self.spec: AttackSpec = spec_for(attack_type)
        self.strategy = strategy
        self.rng = np.random.default_rng(seed)
        self.strategy.prepare(self.rng)

        self.eavesdropper = Eavesdropper(message_bus)
        self.inference = StateInference()
        self.matcher = ContextMatcher(context_table or default_context_table())
        self.corruptor = ValueCorruptor(strategy.corruption_mode, corruption_limits, dt)

        self.record = AttackRecord(attack_type=attack_type, strategy_name=strategy.name)
        self.last_context: Optional[InferredContext] = None
        self._snapshot: Optional[EavesdroppedData] = None

        self._active = False
        self._finished = False
        self._hazard_occurred = False
        self._driver_engaged = False
        self._previous_steering = 0.0
        self._steer_direction = 0

    # -- notifications from the simulation loop -----------------------------

    @property
    def active(self) -> bool:
        """True while the attack is currently injecting faulty commands."""
        return self._active

    def notify_hazard(self) -> None:
        """Tell the engine a hazard has occurred (used to stop the attack)."""
        self._hazard_occurred = True

    def notify_driver_engaged(self) -> None:
        """The driver has taken over; the attack stops immediately."""
        self._driver_engaged = True
        if self._active:
            self.record.stopped_by_driver = True

    # -- the ADAS output hook ------------------------------------------------

    def output_hook(
        self, time: float, command: ActuatorCommand, car_state: CarState
    ) -> ActuatorCommand:
        """Inspect the system state and, when appropriate, corrupt the command.

        Work follows the sensors, not the 100 Hz poll: the state
        inference re-runs only when the eavesdropper delivered a fresh
        snapshot (a new object), and otherwise only ``time`` of the
        previous context is refreshed, so ``last_context`` always equals
        what :meth:`StateInference.infer` would return for this poll.
        The context rules are evaluated only if a strategy that can
        still activate reads its matches: never once the attack is
        active or finished or the driver has taken over, and not before
        a timer strategy's start time.  The speed filter sees every
        poll, as its state depends on each observation.
        """
        snapshot = self.eavesdropper.snapshot(time)
        context = self.last_context
        if snapshot is self._snapshot and context is not None:
            context.time = time
        else:
            self._snapshot = snapshot
            context = self.last_context = self.inference.infer(snapshot)
        if context.valid:
            self.corruptor.observe_speed(context.v_ego)

        if self._driver_engaged:
            self._deactivate(time)
            return command

        if not self._active and not self._finished:
            decision = self.strategy.should_activate(
                time, self.spec, DeferredMatches(self.matcher, context)
            )
            if decision.activate:
                self._active = True
                self._steer_direction = decision.steer_direction
                self.record.activated = True
                self.record.activation_time = time
                self.record.activation_reason = decision.reason
                self.record.steer_direction = decision.steer_direction
                self._previous_steering = command.steering_angle_deg

        if self._active:
            if self.strategy.should_deactivate(
                time, self.record.activation_time, self._hazard_occurred
            ):
                self._deactivate(time)
                return command
            corrupted = self.corruptor.corrupt(
                command,
                self.spec,
                self._steer_direction,
                self._previous_steering,
                cruise_speed=car_state.cruise_speed,
            )
            self._previous_steering = corrupted.steering_angle_deg
            self.record.injected_steps += 1
            return corrupted

        self._previous_steering = command.steering_angle_deg
        return command

    def _deactivate(self, time: float) -> None:
        if self._active:
            self._active = False
            self.record.deactivation_time = time
        self._finished = True

    def close(self) -> None:
        """Release messaging subscriptions."""
        self.eavesdropper.close()
