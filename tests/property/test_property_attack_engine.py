"""Property-based equivalence of the attack engine's sensor-rate fast path.

:meth:`AttackEngine.output_hook` re-runs the state inference only when
the eavesdropper delivered a fresh snapshot and evaluates the context
rules only when the strategy reads them.  :class:`ReferenceEngine` keeps
the straightforward loop — infer and match on every poll — and both are
driven side by side over random publish/poll schedules: every poll must
return the same command, leave the same ``last_context`` field values and
the same :class:`AttackRecord`.
"""

from dataclasses import astuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attack_engine import AttackEngine
from repro.core.attack_types import AttackType
from repro.core.strategies import (
    ContextAwareStrategy,
    NoAttackStrategy,
    RandomDurationStrategy,
    RandomStartDurationStrategy,
    RandomStartStrategy,
    ScheduledAttackStrategy,
)
from repro.messaging.bus import MessageBus
from repro.messaging.messages import (
    CarState,
    GpsLocationExternal,
    LaneLine,
    ModelV2,
    RadarLead,
    RadarState,
)
from repro.sim.vehicle import ActuatorCommand

DT = 0.01


class ReferenceEngine(AttackEngine):
    """Infers the context and matches every rule on every poll."""

    def output_hook(self, time, command, car_state):
        snapshot = self.eavesdropper.snapshot(time)
        context = self.inference.infer(snapshot)
        self.last_context = context
        if context.valid:
            self.corruptor.observe_speed(context.v_ego)
        matches = self.matcher.match(context) if context.valid else []

        if self._driver_engaged:
            self._deactivate(time)
            return command

        if not self._active and not self._finished:
            decision = self.strategy.should_activate(time, self.spec, matches)
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


#: Every Table III strategy plus the search's fixed schedule, with timer
#: ranges short enough to fire within a drawn schedule.
STRATEGIES = {
    "No-Attack": NoAttackStrategy,
    "Random-ST+DUR": lambda: RandomStartDurationStrategy((0.0, 1.5), (0.1, 0.8)),
    "Random-ST": lambda: RandomStartStrategy((0.0, 1.5), duration=0.6),
    "Random-DUR": lambda: RandomDurationStrategy((0.1, 0.8)),
    "Context-Aware": lambda: ContextAwareStrategy(max_duration=0.9),
    "Scheduled": lambda: ScheduledAttackStrategy(start_time=0.4, duration=0.5),
}

speeds = st.floats(min_value=0.0, max_value=40.0)
gps_messages = st.builds(GpsLocationExternal, speed=speeds)
# Offsets that put a lane edge within reach of the 0.1 m Table I threshold.
model_messages = st.builds(
    lambda lateral, width: ModelV2(
        lane_lines=(LaneLine(offset=width / 2 - lateral), LaneLine(offset=-width / 2 - lateral)),
        lateral_offset=lateral,
        lane_width=width,
    ),
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=2.8, max_value=3.8),
)
leads = st.builds(
    RadarLead,
    d_rel=st.floats(min_value=0.0, max_value=150.0),
    v_rel=st.floats(min_value=-12.0, max_value=12.0),
    v_lead=speeds,
    status=st.booleans(),
)
radar_messages = st.builds(RadarState, lead_one=st.one_of(st.none(), leads))

SERVICES = ("gpsLocationExternal", "modelV2", "radarState")

# One cycle: the message each service sends if it publishes this cycle,
# and the ADAS command.
cycles = st.fixed_dictionaries(
    {
        "gpsLocationExternal": gps_messages,
        "modelV2": model_messages,
        "radarState": radar_messages,
        "accel": st.floats(min_value=0.0, max_value=2.0),
        "brake": st.floats(min_value=0.0, max_value=3.5),
        "steer": st.floats(min_value=-30.0, max_value=30.0),
    }
)


@settings(max_examples=120, deadline=None)
@given(
    strategy_name=st.sampled_from(sorted(STRATEGIES)),
    attack_type=st.sampled_from(list(AttackType)),
    seed=st.integers(min_value=0, max_value=2**16),
    # Per service (period, first cycle): sensors publish every few polls
    # and may start late, so data goes from incomplete to complete.
    rates=st.tuples(
        *[st.tuples(st.integers(1, 12), st.integers(0, 30)) for _ in SERVICES]
    ),
    # The cycle before whose poll a hazard / a driver takeover is notified.
    hazard_at=st.one_of(st.none(), st.integers(min_value=0, max_value=220)),
    driver_at=st.one_of(st.none(), st.integers(min_value=0, max_value=220)),
    schedule=st.lists(cycles, min_size=1, max_size=220),
)
def test_fast_path_matches_reference_every_poll(
    strategy_name, attack_type, seed, rates, hazard_at, driver_at, schedule
):
    bus = MessageBus()
    make = STRATEGIES[strategy_name]
    engine = AttackEngine(bus, attack_type, make(), seed=seed)
    reference = ReferenceEngine(bus, attack_type, make(), seed=seed)
    car_state = CarState(v_ego=20.0, cruise_speed=26.82)

    for index, cycle in enumerate(schedule):
        time = index * DT
        for service, (period, first) in zip(SERVICES, rates):
            if index >= first and (index - first) % period == 0:
                bus.publish(service, cycle[service])
        if index == hazard_at:
            engine.notify_hazard()
            reference.notify_hazard()
        if index == driver_at:
            engine.notify_driver_engaged()
            reference.notify_driver_engaged()

        def command():
            return ActuatorCommand(
                accel=cycle["accel"], brake=cycle["brake"], steering_angle_deg=cycle["steer"]
            )

        got = engine.output_hook(time, command(), car_state)
        expected = reference.output_hook(time, command(), car_state)
        assert astuple(got) == astuple(expected), index
        assert astuple(engine.last_context) == astuple(reference.last_context), index
        assert engine.record == reference.record, index
        assert engine.active == reference.active
