"""The eight concrete stages of the fault-injection control cycle.

Stage order (one 10 ms cycle)::

    sense -> perceive -> plan -> inject -> drive -> actuate -> detect -> record

* **sense**    — the world publishes due sensor messages and the car's
  state CAN frames.
* **perceive** — the car state is decoded from the CAN bus into the
  context's reused :class:`~repro.messaging.messages.CarState`.
* **plan**     — the ADAS reads perception and runs the longitudinal and
  lateral planners in place, producing the pre-hook actuator command.
* **inject**   — output hooks (the paper's fault-injection point) corrupt
  the command; alerts are evaluated and everything is published and sent
  on the actuator CAN frames.
* **drive**    — the executed command is decoded from the (possibly
  tampered) bus and the simulated driver reacts; on engagement the ADAS
  is disengaged and the attack engine notified.
* **actuate**  — the world integrates physics and refreshes the ego/lead
  kinematics in the context.
* **detect**   — lane, collision and hazard monitors evaluate the
  precomputed kinematics from the context.
* **record**   — results accounting: hazards, accidents, alerts, the
  trajectory, and the early-stop decision after a collision; then the
  flight recorder's capture, when the run has one, observes the
  finished cycle.

Behavioural equivalence with the pre-kernel loop is bit-for-bit and is
pinned by the golden-run suite (``tests/integration/
test_golden_equivalence.py``); any reordering here must keep it green.

These classes are also the **scalar tier** of the lockstep batch
executor: :class:`repro.kernel.batch.BatchRunner` walks the same eight
stages as *columns* across its rows, runs dense rows through vectorised
implementations (the batched CAN codec and SoA numpy columns in
:class:`repro.kernel.batch.BatchState`), and runs any row that diverges
from the fast path — active alert, CAN transformer, driver
intervention, non-vectorisable actor scripts — through these per-run
``run(ctx)`` methods instead.  A cycle with fewer dense rows than the
dense tier threshold runs all eight methods for every row.  The record
stage is never vectorised, so whatever it does — the flight recorder's
capture included — happens the same way on both paths.  A stage edit here
therefore changes *both* paths' reference semantics: keep the golden
batch-equivalence suite (``tests/integration/test_batch_equivalence.py``,
batch sizes 1/8/64/256) green alongside the sequential goldens.
"""

from typing import Callable, Optional

from repro.kernel.context import StepContext
from repro.kernel.pipeline import PipelineStage


class SenseStage(PipelineStage):
    """Publish sensor messages and the car's state CAN frames."""

    __slots__ = ("world",)
    name = "sense"

    def __init__(self, world):
        self.world = world

    def run(self, ctx: StepContext) -> None:
        world = self.world
        ctx.time = world.time
        world.publish_sensors()
        world.publish_car_can()


class PerceiveStage(PipelineStage):
    """Decode the car's CAN state frames into the reused CarState."""

    __slots__ = ("world",)
    name = "perceive"

    def __init__(self, world):
        self.world = world

    def run(self, ctx: StepContext) -> None:
        self.world.read_car_state_into(ctx.car_state)


class PlanStage(PipelineStage):
    """Run the ADAS planners in place (skipped once the driver has taken over)."""

    __slots__ = ("openpilot",)
    name = "plan"

    def __init__(self, openpilot):
        self.openpilot = openpilot

    def run(self, ctx: StepContext) -> None:
        if not ctx.driver_engaged:
            self.openpilot.plan_into(ctx)


class InjectStage(PipelineStage):
    """Apply output hooks, evaluate alerts, publish and send actuator CAN."""

    __slots__ = ("openpilot",)
    name = "inject"

    def __init__(self, openpilot):
        self.openpilot = openpilot

    def run(self, ctx: StepContext) -> None:
        if not ctx.driver_engaged:
            self.openpilot.inject_into(ctx)


class DriveStage(PipelineStage):
    """Decode the executed command and run the driver-reaction simulator."""

    __slots__ = ("world", "driver", "openpilot", "attack_engine", "result")
    name = "drive"

    def __init__(self, world, driver, openpilot, attack_engine, result):
        self.world = world
        self.driver = driver
        self.openpilot = openpilot
        self.attack_engine = attack_engine
        self.result = result

    def run(self, ctx: StepContext) -> None:
        self.world.decode_actuator_command_into(ctx.executed_command)
        self.react(ctx)

    def react(self, ctx: StepContext) -> None:
        """Driver reaction over an already-populated ``ctx.executed_command``.

        Split out of :meth:`run` so the lockstep batch executor can fill
        the executed command from the vectorised codec read-back (skipping
        the per-run CAN decode) and still share the reaction logic.
        """
        command = ctx.executed_command
        decision = self.driver.update(
            time=ctx.time,
            observed_command=command,
            v_ego=ctx.car_state.v_ego,
            cruise_speed=ctx.cruise_speed,
            lateral_offset=ctx.ego_d,
            heading_error=ctx.ego_heading_error,
            current_steering_deg=ctx.ego_steering_deg,
            lead_gap=ctx.lead_gap,
            lead_speed=ctx.lead_speed,
            out=ctx.driver_decision,
        )
        if decision.engaged:
            if not ctx.driver_engaged:
                ctx.driver_engaged = True
                self.result.driver_engaged = True
                self.result.driver_engagement_time = ctx.time
                self.openpilot.disengage()
                if self.attack_engine is not None:
                    self.attack_engine.notify_driver_engaged()
            override = decision.command
            command.accel = override.accel
            command.brake = override.brake
            command.steering_angle_deg = override.steering_angle_deg


class ActuateStage(PipelineStage):
    """Integrate world physics and refresh the kinematics in the context."""

    __slots__ = ("world",)
    name = "actuate"

    def __init__(self, world):
        self.world = world

    def run(self, ctx: StepContext) -> None:
        world = self.world
        world.integrate(ctx.executed_command)
        world.observe_into(ctx)


class DetectStage(PipelineStage):
    """Lane, collision and hazard monitors over the context kinematics."""

    __slots__ = ("lane_monitor", "collision_detector", "hazard_monitor")
    name = "detect"

    def __init__(self, lane_monitor, collision_detector, hazard_monitor):
        self.lane_monitor = lane_monitor
        self.collision_detector = collision_detector
        self.hazard_monitor = hazard_monitor

    def run(self, ctx: StepContext) -> None:
        self.lane_monitor.check_values(
            ctx.end_time, ctx.ego_left_edge, ctx.ego_right_edge, ctx.ego_d
        )
        ctx.lane_invasions = len(self.lane_monitor.report.invasion_events)
        ctx.collision = self.collision_detector.check_context(ctx)
        ctx.new_hazards = self.hazard_monitor.check_context(ctx)


class RecordStage(PipelineStage):
    """Results accounting: hazards, accidents, alerts, trajectory, stop.

    ``capture``, when given, observes the finished cycle as the stage's
    last step: the flight recorder's read-only
    :meth:`~repro.obs.recorder.FlightRecorder.capture`.  It must never
    write to the context, an RNG stream or any stage state.
    """

    __slots__ = (
        "world",
        "result",
        "attack_engine",
        "alert_sub",
        "stop_after_collision",
        "track_safety_margin",
        "capture",
    )
    name = "record"

    def __init__(
        self,
        world,
        result,
        attack_engine,
        alert_sub,
        stop_after_collision: float,
        track_safety_margin: bool = False,
        capture: Optional[Callable[[StepContext], None]] = None,
    ):
        self.world = world
        self.result = result
        self.attack_engine = attack_engine
        self.alert_sub = alert_sub
        self.stop_after_collision = stop_after_collision
        self.track_safety_margin = track_safety_margin
        self.capture = capture

    def run(self, ctx: StepContext) -> None:
        world = self.world
        result = self.result
        if self.track_safety_margin:
            # Running minima along the three hazard axes, so search
            # objectives can rank hazard-free runs by how close they came:
            # lead TTC (H1; gap over closing speed while closing),
            # ego speed (H2), distance to the nearer lane line (H3).
            gap = ctx.lead_gap
            if gap is not None:
                if result.min_lead_gap is None or gap < result.min_lead_gap:
                    result.min_lead_gap = gap
                closing = ctx.ego_speed - ctx.lead_speed
                if closing > 0.0:
                    ttc = gap / closing
                    if result.min_ttc is None or ttc < result.min_ttc:
                        result.min_ttc = ttc
            speed = ctx.ego_speed
            if result.min_ego_speed is None or speed < result.min_ego_speed:
                result.min_ego_speed = speed
            lane_margin = min(
                ctx.road_left_lane_line - ctx.ego_d,
                ctx.ego_d - ctx.road_right_lane_line,
            )
            if result.min_lane_margin is None or lane_margin < result.min_lane_margin:
                result.min_lane_margin = lane_margin
        if ctx.new_hazards:
            for event in ctx.new_hazards:
                result.record_hazard(event)
                if self.attack_engine is not None:
                    self.attack_engine.notify_hazard()
        if ctx.collision is not None:
            result.record_accident(ctx.collision)
            if ctx.collision_time is None:
                ctx.collision_time = ctx.collision.time
        if self.alert_sub.updated:
            for event in self.alert_sub.drain():
                result.alerts.append((event.data.name, event.mono_time))
        config = world.config
        if config.record_trajectory and world.step_count % config.trajectory_decimation == 0:
            world.record_trajectory_sample()
        if (
            ctx.collision_time is not None
            and ctx.end_time - ctx.collision_time >= self.stop_after_collision
        ):
            ctx.stop = True
        if self.capture is not None:
            self.capture(ctx)
