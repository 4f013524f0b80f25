"""Simulation world: clock, actors, sensors, and the physical buses.

The :class:`World` owns the road, the ego vehicle, the scripted traffic,
the sensors and the collision/lane monitors.  Every control period it

1. publishes sensor messages on the Cereal-substitute bus,
2. publishes the car's state frames on the CAN bus,
3. decodes the latest actuator-command frames from the CAN bus (these may
   have been tampered with by an attacker registered as a bus
   transformer), and
4. integrates the vehicle dynamics and ground-truth monitors.

The ADAS, attack engine, driver model and fault-injection engine all live
*outside* the world and interact with it only through the buses, matching
the paper's architecture (Fig. 5).
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.can.bus import CANBus
from repro.can.frame import CANFrame
from repro.can.honda import (
    ACC_CONTROL_LAYOUT,
    ADDR,
    POWERTRAIN_LAYOUT,
    STEERING_CONTROL_LAYOUT,
    STEERING_SENSORS_LAYOUT,
)
from repro.messaging.bus import MessageBus
from repro.messaging.messages import CarState
from repro.sim.actors import FollowerVehicle, LeadVehicle, ScriptedVehicle
from repro.sim.collision import CollisionDetector, CollisionEvent, LaneMonitor
from repro.sim.road import Road
from repro.sim.scenarios import Scenario
from repro.sim.sensors import CameraModel, GpsSensor, RadarSensor, SensorNoise
from repro.sim.units import DT
from repro.sim.vehicle import ActuatorCommand, EgoVehicle, VehicleParams


@dataclass(frozen=True)
class WorldConfig:
    """Configuration of the simulation world.

    The lateral disturbance models slowly varying road crown / crosswind /
    tyre pull.  OpenPilot's proportional lane centering does not reject it
    completely, so the ego vehicle rides — and occasionally crosses — lane
    lines even without attacks, which reproduces the paper's Observation 1
    (lane invasions happen without any fault injection) and provides the
    near-lane-edge contexts (rules 3 and 4 of the safety context table)
    that trigger steering attacks.
    """

    scenario: Scenario
    noise: SensorNoise = SensorNoise()
    seed: int = 0
    record_trajectory: bool = True
    trajectory_decimation: int = 10   # record one sample every N steps
    disturbance_amplitude: float = 0.006   # 1/m, peak disturbance curvature
    disturbance_period: float = 10.0       # s


@dataclass
class TrajectorySample:
    """One recorded point of the ego trajectory (for Figure 7)."""

    time: float
    s: float
    d: float
    speed: float
    steering_wheel_deg: float
    x: float = 0.0
    y: float = 0.0


@dataclass
class WorldStepResult:
    """Ground-truth observations produced by one world step."""

    time: float
    collision: Optional[CollisionEvent] = None
    lead_gap: Optional[float] = None       # bumper-to-bumper distance, m
    lead_speed: Optional[float] = None


class World:
    """The physical simulation (CARLA substitute)."""

    def __init__(self, config: WorldConfig, message_bus: MessageBus, can_bus: CANBus):
        self.config = config
        self.message_bus = message_bus
        self.can_bus = can_bus
        self.road = Road(config.scenario.road)
        self.time = 0.0
        self.step_count = 0

        scenario = config.scenario
        params = VehicleParams()
        self.ego = EgoVehicle(
            self.road,
            params=params,
            initial_speed=scenario.ego_initial_speed,
            initial_s=0.0,
            initial_d=scenario.ego_initial_lane_offset,
        )
        # The paper quotes the gap as the distance to the lead vehicle, so
        # position the lead's rear bumper `initial_distance` ahead of the
        # ego front bumper.
        self.scenario_lead: Optional[LeadVehicle] = None
        if scenario.with_lead:
            self.scenario_lead = LeadVehicle(
                initial_s=self.ego.front_s + scenario.initial_distance + 4.6 / 2.0,
                initial_speed=scenario.lead_initial_speed,
                behavior=scenario.lead_behavior,
                target_speed=scenario.lead_target_speed,
                speed_change_rate=scenario.lead_speed_change_rate,
                speed_change_start=scenario.lead_speed_change_start,
                # lead_phases() is the single place the profile-vs-behavior
                # precedence is resolved; the behavior args above only feed
                # the wrapper's legacy attributes.
                profile=scenario.lead_phases(),
                lane_change=scenario.lead_lane_change,
            )
        # Further scripted traffic (cut-in / cut-out vehicles, queues, ...).
        lane_width = scenario.road.lane_width
        self.scripted_actors: List[ScriptedVehicle] = [
            ScriptedVehicle(
                initial_s=self.ego.front_s + spec.initial_gap + spec.length / 2.0,
                initial_speed=spec.initial_speed,
                profile=spec.profile,
                initial_d=spec.lane * lane_width,
                lane_change=spec.lane_change,
                length=spec.length,
                width=spec.width,
                kind=spec.kind,
                idm=spec.idm,
            )
            for spec in scenario.actors
        ]
        # Lead selection only runs when an actor can enter or leave the ego
        # lane; for single-lead scenarios (S1-S4) `self.lead` is pinned to
        # the scenario lead and the step path is unchanged.
        self._dynamic_lead = bool(self.scripted_actors) or (
            scenario.lead_lane_change is not None
        )
        self._half_lane = lane_width / 2.0
        # All scripted traffic ahead of the ego, built once: the per-step
        # lead selection and collision sweep iterate it without allocating.
        self._traffic: List[ScriptedVehicle] = (
            [] if self.scenario_lead is None else [self.scenario_lead]
        ) + self.scripted_actors
        # IDM car-following only costs a per-actor leader scan when some
        # actor actually enables it; the default path is unchanged.
        self._any_idm = any(actor.idm is not None for actor in self.scripted_actors)
        self.lead: Optional[ScriptedVehicle] = self._select_lead()
        self.follower: Optional[FollowerVehicle] = None
        if scenario.with_follower:
            self.follower = FollowerVehicle(
                initial_s=self.ego.rear_s - scenario.follower_gap,
                initial_speed=scenario.follower_speed,
                reaction_delay=scenario.follower_reaction_delay,
                desired_headway=scenario.follower_headway,
            )

        rng = np.random.default_rng(config.seed)
        self.gps = GpsSensor(config.noise, rng)
        self.radar = RadarSensor(config.noise, rng)
        self.camera = CameraModel(config.noise, rng)
        self._disturbance_phase = float(rng.uniform(0.0, 2.0 * np.pi))
        self._disturbance_omega = 2.0 * np.pi / config.disturbance_period

        self.collision_detector = CollisionDetector(self.road)
        self.lane_monitor = LaneMonitor(self.road)

        self.trajectory: List[TrajectorySample] = []
        self._can_counter = 0
        self._last_command = ActuatorCommand()

        # Hot-path caches: resolve the arbitration ids and the compiled
        # frame packers and readers once instead of a lookup per call.
        self._addr_powertrain = ADDR["POWERTRAIN_DATA"]
        self._addr_steering_sensors = ADDR["STEERING_SENSORS"]
        self._addr_steering_control = ADDR["STEERING_CONTROL"]
        self._addr_acc_control = ADDR["ACC_CONTROL"]
        self._pack_powertrain = POWERTRAIN_LAYOUT.pack
        self._pack_steering_sensors = STEERING_SENSORS_LAYOUT.pack
        self._read_powertrain = POWERTRAIN_LAYOUT.read
        self._read_steering_sensors = STEERING_SENSORS_LAYOUT.read
        self._read_steering_control = STEERING_CONTROL_LAYOUT.read
        self._read_acc_control = ACC_CONTROL_LAYOUT.read

    def _select_lead(self) -> Optional[ScriptedVehicle]:
        """The closest scripted vehicle ahead of the ego in the ego lane.

        With no extra actors and a lane-keeping scenario lead this is the
        scenario lead itself, unconditionally; the dynamic path handles
        cut-ins becoming the lead and cut-outs revealing a new one.
        """
        if not self._dynamic_lead:
            return self.scenario_lead
        ego_s = self.ego.state.s
        best: Optional[ScriptedVehicle] = None
        for vehicle in self._traffic:
            state = vehicle.state
            if state.s < ego_s or abs(state.d) > self._half_lane:
                continue
            if best is None or state.s < best.state.s:
                best = vehicle
        return best

    def collision_others(self) -> Sequence[ScriptedVehicle]:
        """The vehicles the collision sweep must consider besides the lead.

        Single place for the invariant shared by :meth:`step` and the
        kernel's detect stage: with dynamic lead selection the whole
        precomputed traffic list is swept (the detector skips the tracked
        lead), otherwise the lead-only fast path applies.
        """
        return self._traffic if self._dynamic_lead else ()

    def _idm_leader(self, actor: ScriptedVehicle):
        """The vehicle directly ahead of ``actor`` in its lane (incl. the ego).

        Only evaluated for actors with IDM car-following enabled; returns
        ``None`` when ``actor`` has a clear lane ahead.
        """
        if actor.idm is None:
            return None
        s = actor.state.s
        d = actor.state.d
        best = None
        best_s = float("inf")
        for vehicle in self._traffic:
            if vehicle is actor:
                continue
            state = vehicle.state
            if state.s <= s or abs(state.d - d) > self._half_lane:
                continue
            if state.s < best_s:
                best = vehicle
                best_s = state.s
        ego_state = self.ego.state
        if ego_state.s > s and ego_state.s < best_s and abs(ego_state.d - d) <= self._half_lane:
            return self.ego
        return best

    def disturbance_curvature(self, time: float) -> float:
        """Environmental lateral disturbance (road crown / crosswind), 1/m."""
        if self.config.disturbance_amplitude == 0.0:
            return 0.0
        # math.sin is bit-identical to np.sin on scalars (both call libm)
        # and avoids the numpy scalar boxing on the 100 Hz path.
        return self.config.disturbance_amplitude * math.sin(
            self._disturbance_omega * time + self._disturbance_phase
        )

    # -- sensing and CAN output ------------------------------------------

    def publish_sensors(self) -> None:
        """Publish due sensor messages on the Cereal-substitute bus."""
        self.message_bus.set_time(self.time)
        if self.gps.due(self.time):
            self.message_bus.publish("gpsLocationExternal", self.gps.measure(self.ego, self.road))
        if self.radar.due(self.time):
            self.message_bus.publish("radarState", self.radar.measure(self.ego, self.lead))
        if self.camera.due(self.time):
            self.message_bus.publish(
                "modelV2", self.camera.measure(self.ego, self.road, self.lead, time=self.time)
            )

    def publish_car_can(self) -> None:
        """Publish the car's state frames (speed, steering) on the CAN bus.

        Built on the same :meth:`batched_car_can_inputs` /
        :meth:`send_car_can_frames` pair the lockstep batch executor
        uses, so the signal formulas exist exactly once.
        """
        speed, accel, pedal_gas, brake_pressed, steer, counter = self.batched_car_can_inputs()
        self.send_car_can_frames(
            self._pack_powertrain(counter, speed, accel, pedal_gas, brake_pressed),
            self._pack_steering_sensors(counter, steer),
        )

    # -- car-state CAN semantics (shared scalar / lockstep-batch path) ----
    #
    # The batch executor (repro.kernel.batch) vectorises the two car-state
    # CAN encodes across all runs of a batch.  The three helpers below are
    # the single home of the semantics — which values go into which
    # signal, frame order, counter advance, and the decode tail of
    # read_car_state_into.  The scalar publish_car_can /
    # read_car_state_into are built on them, and the batch executor calls
    # them around the shared BatchMessageCodec, so the two paths cannot
    # drift apart.

    def batched_car_can_inputs(self) -> "tuple[float, float, float, float, float, int]":
        """Advance the CAN counter and return this step's car-state signal values.

        Returns ``(speed, accel, pedal_gas, brake_pressed, steer_angle,
        counter)`` — exactly the values :meth:`publish_car_can` packs into
        :data:`~repro.can.honda.POWERTRAIN_LAYOUT` and
        :data:`~repro.can.honda.STEERING_SENSORS_LAYOUT`.
        """
        state = self.ego.state
        self._can_counter = (self._can_counter + 1) & 0x3
        last = self._last_command
        return (
            state.speed,
            state.accel,
            max(0.0, last.accel / 4.0),
            1.0 if last.brake > 0.1 else 0.0,
            state.steering_wheel_deg,
            self._can_counter,
        )

    def send_car_can_frames(self, powertrain_payload: bytes, sensors_payload: bytes) -> None:
        """Send pre-encoded car-state payloads (same frame order as
        :meth:`publish_car_can`)."""
        self.can_bus.send(
            CANFrame(self._addr_powertrain, powertrain_payload, timestamp=self.time)
        )
        self.can_bus.send(
            CANFrame(self._addr_steering_sensors, sensors_payload, timestamp=self.time)
        )

    def apply_fused_car_state(
        self, out: CarState, speed: float, accel: float, steer: float
    ) -> CarState:
        """The tail of :meth:`read_car_state_into` once the CAN round trip
        has been resolved to ``speed``/``accel``/``steer``.

        :meth:`read_car_state_into` delegates here after decoding the bus;
        the batch executor calls it directly with the vectorised codec
        read-back, which is only valid when the frames on the bus are
        known to be the ones the codec just encoded (no transformers).
        """
        out.v_ego = speed
        out.a_ego = accel
        out.steering_angle_deg = steer
        last = self._last_command
        out.gas = max(0.0, last.accel / 4.0)
        out.brake = min(1.0, last.brake / 4.0)
        out.cruise_enabled = True
        out.cruise_speed = self.config.scenario.cruise_speed
        out.standstill = speed < 0.1
        return out

    def read_car_state(self) -> CarState:
        """Decode the car's CAN state frames into a fresh :class:`CarState`."""
        return self.read_car_state_into(CarState())

    def read_car_state_into(self, out: CarState) -> CarState:
        """Decode the car's CAN state frames into ``out`` (kernel fast path).

        Every field that :meth:`read_car_state` sets is overwritten, so a
        reused instance never carries stale values.
        """
        speed = self.ego.state.speed
        accel = self.ego.state.accel
        steer = self.ego.state.steering_wheel_deg
        powertrain = self.can_bus.latest(self._addr_powertrain)
        sensors = self.can_bus.latest(self._addr_steering_sensors)
        if powertrain is not None:
            speed, accel = self._read_powertrain(powertrain)
        if sensors is not None:
            (steer,) = self._read_steering_sensors(sensors)
        return self.apply_fused_car_state(out, speed, accel, steer)

    # -- actuation --------------------------------------------------------

    def decode_actuator_command(self) -> ActuatorCommand:
        """Decode the most recent actuator frames from the CAN bus.

        If the ADAS has not yet sent a command (first cycle), the previous
        command is held, which matches real actuator behaviour.
        """
        return self.decode_actuator_command_into(ActuatorCommand())

    def decode_actuator_command_into(self, out: ActuatorCommand) -> ActuatorCommand:
        """Decode the actuator frames into ``out`` (kernel fast path).

        ``out`` may be the object currently held as the last executed
        command; the held-command semantics (no frame yet -> previous
        value) still apply because every field is seeded from the last
        command before decoding.
        """
        steering_frame = self.can_bus.latest(self._addr_steering_control)
        acc_frame = self.can_bus.latest(self._addr_acc_control)
        last = self._last_command
        out.accel = last.accel
        out.brake = last.brake
        out.steering_angle_deg = last.steering_angle_deg
        if acc_frame is not None:
            accel, brake = self._read_acc_control(acc_frame)
            out.accel = max(0.0, accel)
            out.brake = max(0.0, brake)
        if steering_frame is not None:
            (out.steering_angle_deg,) = self._read_steering_control(steering_frame)
        return out

    def integrate(self, command: ActuatorCommand) -> None:
        """Physics half of a world step: actors + clock, no monitors.

        The kernel's actuate stage calls this directly; lane/collision
        monitoring and trajectory recording live in the detect and record
        stages (:mod:`repro.kernel.stages`).  :meth:`step` composes the
        same pieces for the legacy single-call API.
        """
        self._last_command = command
        self.ego.step(command, DT, disturbance_curvature=self.disturbance_curvature(self.time))
        self.advance_traffic()

    def advance_traffic(self) -> None:
        """The tail of :meth:`integrate` after the ego physics: scripted
        traffic, lead selection, the follower and the clock.

        Split out so the lockstep batch executor can integrate the ego
        vehicles of a whole batch as one vectorised column
        (:func:`repro.sim.vehicle.step_ego_columns`) and then advance each
        run's traffic with the exact per-run code below; the scalar
        :meth:`integrate` composes the same two halves.
        """
        if self.scenario_lead is not None:
            self.scenario_lead.step(self.time, DT)
        if self.scripted_actors:
            if self._any_idm:
                for actor in self.scripted_actors:
                    actor.step(self.time, DT, leader=self._idm_leader(actor))
            else:
                for actor in self.scripted_actors:
                    actor.step(self.time, DT)
        if self._dynamic_lead:
            self.lead = self._select_lead()
        if self.follower is not None:
            self.follower.step(self.time, self.ego.rear_s, self.ego.state.speed, DT)

        self.time += DT
        self.step_count += 1

    def observe_into(self, ctx) -> None:
        """Refresh the kinematic fields of a kernel StepContext.

        Uses the same arithmetic as the ego geometry properties and
        :meth:`lead_observation`, so the values are bit-identical to the
        property-chain reads they replace.
        """
        state = self.ego.state
        ego = self.ego
        ctx.end_time = self.time
        ctx.ego_s = state.s
        ctx.ego_d = state.d
        ctx.ego_speed = state.speed
        ctx.ego_heading_error = state.heading_error
        ctx.ego_steering_deg = state.steering_wheel_deg
        ctx.ego_front_s = state.s + ego._half_length
        ctx.ego_rear_s = state.s - ego._half_length
        ctx.ego_left_edge = state.d + ego._half_width
        ctx.ego_right_edge = state.d - ego._half_width
        lead = self.lead
        ctx.lead = lead
        if lead is None:
            ctx.lead_gap = None
            ctx.lead_speed = None
            ctx.lead_d = 0.0
        else:
            lead_state = lead.state
            ctx.lead_gap = lead.rear_s - ctx.ego_front_s
            ctx.lead_speed = lead_state.speed
            ctx.lead_d = lead_state.d

    def record_trajectory_sample(self) -> None:
        """Append the current ego state to the recorded trajectory.

        Cartesian coordinates are filled in lazily by the analysis layer
        (Figure 7) to keep the inner loop cheap.
        """
        state = self.ego.state
        self.trajectory.append(
            TrajectorySample(
                time=self.time,
                s=state.s,
                d=state.d,
                speed=state.speed,
                steering_wheel_deg=state.steering_wheel_deg,
            )
        )

    def step(self, command: Optional[ActuatorCommand] = None) -> WorldStepResult:
        """Advance the physical world by one control period (10 ms).

        Args:
            command: Actuator command to execute.  If ``None``, the command
                is decoded from the CAN bus (normal ADAS operation); a
                non-``None`` value models the human driver overriding the
                system.
        """
        if command is None:
            command = self.decode_actuator_command()
        self.integrate(command)

        self.lane_monitor.check(self.time, self.ego)
        collision = self.collision_detector.check(
            self.time,
            self.ego,
            self.lead,
            self.follower,
            others=self.collision_others(),
        )

        if self.config.record_trajectory and self.step_count % self.config.trajectory_decimation == 0:
            self.record_trajectory_sample()

        lead_gap, lead_speed = self.lead_observation()
        return WorldStepResult(
            time=self.time, collision=collision, lead_gap=lead_gap, lead_speed=lead_speed
        )

    def lead_observation(self) -> "tuple[Optional[float], Optional[float]]":
        """Ground-truth (bumper-to-bumper gap, lead speed), or ``(None, None)``.

        This is the single place the lead gap is computed; the simulation
        loop reuses the value carried by :class:`WorldStepResult` instead
        of recomputing it every step.
        """
        if self.lead is None:
            return None, None
        return self.lead.rear_s - self.ego.front_s, self.lead.state.speed
