"""Top-level ADAS loop (OpenPilot substitute).

Each control cycle the :class:`OpenPilot` object

1. reads the latest perception (``modelV2``) and radar (``radarState``)
   messages from the Cereal-substitute bus,
2. runs the longitudinal (ACC) and lateral (ALC) planners,
3. clamps the resulting actuator commands to its output safety limits,
4. runs any registered *output hooks* — this is the injection point used
   by the fault-injection engine, matching the paper's attack model of
   corrupting the ADAS output variables just before they are sent to the
   actuators,
5. evaluates alerts (FCW on the final brake output, ``steerSaturated`` on
   the lateral controller state) and publishes them,
6. encodes the commands into CAN frames (``STEERING_CONTROL`` 0xE4 and
   ``ACC_CONTROL``) and sends them on the CAN bus.
"""

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List

import numpy as np

from repro.adas.alerts import Alert, AlertManager, AlertThresholds
from repro.adas.driver_monitoring import DriverMonitoring
from repro.adas.lateral import LateralParams, LateralPlan, LateralPlanner
from repro.adas.limits import OPENPILOT_LIMITS, SafetyLimits
from repro.adas.longitudinal import LongitudinalParams, LongitudinalPlan, LongitudinalPlanner
from repro.can.bus import CANBus
from repro.can.frame import CANFrame
from repro.can.honda import ACC_CONTROL_LAYOUT, ADDR, STEERING_CONTROL_LAYOUT
from repro.messaging.bus import MessageBus
from repro.messaging.messages import Actuators, CarControl, CarState, ControlsState
from repro.messaging.pubsub import PubMaster, SubMaster
from repro.sim.units import clamp
from repro.sim.vehicle import ActuatorCommand

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.batch import BatchState

# An output hook receives (time, command, car_state) and returns the —
# possibly corrupted — command to send to the car.
OutputHook = Callable[[float, ActuatorCommand, CarState], ActuatorCommand]


@dataclass(frozen=True)
class OpenPilotConfig:
    """Configuration of the ADAS stack."""

    output_limits: SafetyLimits = OPENPILOT_LIMITS
    longitudinal: LongitudinalParams = LongitudinalParams()
    lateral: LateralParams = LateralParams()
    alert_thresholds: AlertThresholds = AlertThresholds()


@dataclass
class ControlCycleResult:
    """Everything produced by one ADAS control cycle."""

    command: ActuatorCommand
    pre_hook_command: ActuatorCommand
    long_plan: LongitudinalPlan
    lat_plan: LateralPlan
    new_alerts: List[Alert] = field(default_factory=list)
    engaged: bool = True


class OpenPilot:
    """The ADAS control stack (ALC + ACC + safety mechanisms)."""

    def __init__(self, config: OpenPilotConfig, message_bus: MessageBus, can_bus: CANBus):
        self.config = config
        self.message_bus = message_bus
        self.can_bus = can_bus

        self.sub_master = SubMaster(message_bus, ["modelV2", "radarState", "gpsLocationExternal"])
        self.pub_master = PubMaster(
            message_bus,
            ["carControl", "controlsState", "alertEvent", "driverMonitoringState", "carState"],
        )

        self.long_planner = LongitudinalPlanner(config.longitudinal)
        self.lat_planner = LateralPlanner(config.lateral)
        self.alert_manager = AlertManager(config.alert_thresholds)
        self.driver_monitoring = DriverMonitoring()

        self._output_hooks: List[OutputHook] = []
        self._engaged = True
        self._can_counter = 0
        # Steering angle of the previously *commanded* frame (the output
        # rate limit is applied against it).  A plain float rather than a
        # retained ActuatorCommand so the kernel can reuse one command
        # object per cycle without aliasing the history.
        self._previous_steering_deg = 0.0
        # Compiled packers for the two command frames sent every cycle.
        self._addr_steering_control = ADDR["STEERING_CONTROL"]
        self._addr_acc_control = ADDR["ACC_CONTROL"]
        self._pack_steering_control = STEERING_CONTROL_LAYOUT.pack
        self._pack_acc_control = ACC_CONTROL_LAYOUT.pack
        # Reused 100 Hz payloads: bus payloads are shared and treated as
        # immutable by subscribers (see repro.messaging.messages), so the
        # publisher refreshes one instance per service instead of
        # constructing a new payload every cycle.
        self._actuators = Actuators()
        self._car_control = CarControl(actuators=self._actuators)
        self._controls_state = ControlsState()

    # -- lifecycle ---------------------------------------------------------

    @property
    def engaged(self) -> bool:
        """True while the ADAS is actively controlling the car."""
        return self._engaged

    def disengage(self) -> None:
        """Disengage (e.g. the driver has taken over)."""
        self._engaged = False

    def add_output_hook(self, hook: OutputHook) -> None:
        """Register a hook applied to the actuator command each cycle.

        Hooks run after the output safety limits and before alert
        evaluation and CAN encoding — the injection point of the paper.
        """
        self._output_hooks.append(hook)

    def remove_output_hook(self, hook: OutputHook) -> None:
        if hook in self._output_hooks:
            self._output_hooks.remove(hook)

    # -- control cycle -----------------------------------------------------

    def step(self, time: float, car_state: CarState, dt: float = 0.01) -> ControlCycleResult:
        """Run one 10 ms control cycle and send commands on the CAN bus.

        Public allocating API: builds fresh plan and command objects each
        call.  The kernel's step pipeline uses :meth:`plan_into` /
        :meth:`inject_into` instead, which reuse the objects preallocated
        on the :class:`~repro.kernel.context.StepContext`.
        """
        long_plan = LongitudinalPlan()
        lat_plan = LateralPlan()
        pre_hook = ActuatorCommand()
        self._plan_cycle(time, car_state, dt, long_plan, lat_plan, pre_hook)
        command = ActuatorCommand(
            accel=pre_hook.accel,
            brake=pre_hook.brake,
            steering_angle_deg=pre_hook.steering_angle_deg,
        )
        command, new_alerts = self._emit_cycle(time, car_state, long_plan, lat_plan, command)
        return ControlCycleResult(
            command=command,
            pre_hook_command=pre_hook,
            long_plan=long_plan,
            lat_plan=lat_plan,
            new_alerts=new_alerts,
            engaged=self._engaged,
        )

    # -- kernel pipeline entry points --------------------------------------

    def plan_into(self, ctx) -> None:
        """Plan stage: perception, planners and output limits, in place."""
        self._plan_cycle(
            ctx.time, ctx.car_state, ctx.dt, ctx.long_plan, ctx.lat_plan, ctx.pre_hook_command
        )

    def inject_into(self, ctx) -> None:
        """Inject stage: output hooks, alerts, publications, actuator CAN.

        The final (possibly corrupted) command always lands in
        ``ctx.adas_command``, whatever object the hooks returned.
        """
        if self.emit_publish_into(ctx):
            cmd = ctx.adas_command
            self._send_can(ctx.time, cmd)
            self._previous_steering_deg = cmd.steering_angle_deg

    def emit_publish_into(self, ctx) -> bool:
        """The inject stage minus the actuator CAN send (batch fast path).

        Runs the output hooks, alert evaluation and publications exactly
        like :meth:`inject_into`, leaving the final command in
        ``ctx.adas_command``, and returns whether the actuator frames
        still need to be sent (i.e. the ADAS is engaged).  The lockstep
        batch executor gathers the commands of every run that returns
        True and encodes them in one vectorised pass; the scalar path
        sends them via :meth:`_send_can` right away.
        """
        cmd = ctx.adas_command
        pre = ctx.pre_hook_command
        cmd.accel = pre.accel
        cmd.brake = pre.brake
        cmd.steering_angle_deg = pre.steering_angle_deg
        final, _ = self._emit_publish(
            ctx.time, ctx.car_state, ctx.long_plan, ctx.lat_plan, cmd
        )
        if final is not cmd:
            cmd.accel = final.accel
            cmd.brake = final.brake
            cmd.steering_angle_deg = final.steering_angle_deg
        return self._engaged

    def advance_can_counter(self) -> int:
        """Advance and return the rolling counter for one command-frame pair."""
        self._can_counter = (self._can_counter + 1) & 0x3
        return self._can_counter

    def send_can_payloads(
        self, time: float, steering_payload: bytes, acc_payload: bytes,
        steering_angle_deg: float,
    ) -> None:
        """Send pre-encoded actuator payloads (same frame order as
        :meth:`_send_can`) and record the commanded steering angle for the
        next cycle's output rate limit."""
        self.can_bus.send(
            CANFrame(self._addr_steering_control, steering_payload, timestamp=time)
        )
        self.can_bus.send(CANFrame(self._addr_acc_control, acc_payload, timestamp=time))
        self._previous_steering_deg = steering_angle_deg

    def plan_prelude(self, time: float, car_state: CarState, dt: float):
        """Perception reads + driver-monitoring publishes of the plan stage.

        Exactly the first half of :meth:`_plan_cycle` — the messaging
        round trip that stays per-run even on the batch fast path (each
        run owns its buses).  Returns ``(model, radar)`` for the planner
        half; the lockstep batch executor calls this per row and then
        runs the planner arithmetic as vectorised columns.
        """
        self.sub_master.update()
        model = self.sub_master["modelV2"]
        radar = self.sub_master["radarState"]

        dm_state = self.driver_monitoring.update(time, dt)
        self.pub_master.send("driverMonitoringState", dm_state)
        self.pub_master.send("carState", car_state)
        return model, radar

    # -- cycle internals ---------------------------------------------------

    def _plan_cycle(
        self,
        time: float,
        car_state: CarState,
        dt: float,
        long_plan: LongitudinalPlan,
        lat_plan: LateralPlan,
        pre_hook: ActuatorCommand,
    ) -> None:
        """Perception + planning half of the cycle, writing into the given objects."""
        model, radar = self.plan_prelude(time, car_state, dt)

        self.long_planner.update_into(long_plan, car_state, radar)
        if model is not None:
            self.lat_planner.update_into(lat_plan, car_state, model)
        else:
            lat_plan.desired_curvature = 0.0
            lat_plan.desired_steering_deg = car_state.steering_angle_deg
            lat_plan.output_steering_deg = car_state.steering_angle_deg
            lat_plan.saturated = False

        # Split planner acceleration into gas / brake channels and apply the
        # output-stage safety limits.
        limits = self.config.output_limits
        desired_accel = clamp(long_plan.desired_accel, limits.brake_min, limits.accel_max)
        pre_hook.accel = max(0.0, desired_accel)
        pre_hook.brake = max(0.0, -desired_accel)

        steer_delta = lat_plan.output_steering_deg - self._previous_steering_deg
        pre_hook.steering_angle_deg = self._previous_steering_deg + limits.clamp_steer_delta(
            steer_delta
        )

    def _emit_cycle(
        self,
        time: float,
        car_state: CarState,
        long_plan: LongitudinalPlan,
        lat_plan: LateralPlan,
        command: ActuatorCommand,
    ) -> "tuple[ActuatorCommand, List[Alert]]":
        """Hooks + alerts + publications + CAN half of the cycle.

        Returns the final command (hooks may substitute a new object) and
        the newly raised alerts.
        """
        command, new_alerts = self._emit_publish(time, car_state, long_plan, lat_plan, command)
        if self._engaged:
            self._send_can(time, command)
            self._previous_steering_deg = command.steering_angle_deg
        return command, new_alerts

    def _emit_publish(
        self,
        time: float,
        car_state: CarState,
        long_plan: LongitudinalPlan,
        lat_plan: LateralPlan,
        command: ActuatorCommand,
    ) -> "tuple[ActuatorCommand, List[Alert]]":
        """Hooks + alerts + publications — everything up to the CAN send."""
        if self._engaged:
            for hook in self._output_hooks:
                command = hook(time, command, car_state)

        new_alerts = self.alert_manager.update(
            time=time,
            v_ego=car_state.v_ego,
            output_brake=command.brake,
            long_plan=long_plan,
            lat_plan=lat_plan,
        )
        for alert in new_alerts:
            self.pub_master.send("alertEvent", alert.to_event())

        actuators = self._actuators
        actuators.accel = command.accel
        actuators.brake = -command.brake
        actuators.steering_angle_deg = command.steering_angle_deg
        actuators.steer_torque = clamp(command.steering_angle_deg / 100.0, -1.0, 1.0)
        car_control = self._car_control
        car_control.enabled = self._engaged
        self.pub_master.send("carControl", car_control)
        if new_alerts:
            fcw = any(alert.name == "fcw" for alert in new_alerts)
            alert_text = new_alerts[-1].text
            alert_type = new_alerts[-1].name
            alert_status = (
                "critical" if any(a.severity == "critical" for a in new_alerts) else "normal"
            )
        else:
            fcw = False
            alert_text = ""
            alert_type = ""
            alert_status = "normal"
        controls_state = self._controls_state
        controls_state.enabled = True
        controls_state.active = self._engaged
        controls_state.v_cruise = car_state.cruise_speed
        controls_state.v_target = long_plan.v_target
        controls_state.a_target = long_plan.desired_accel
        controls_state.curvature = lat_plan.desired_curvature
        controls_state.steer_saturated = lat_plan.saturated
        controls_state.fcw = fcw
        controls_state.alert_text = alert_text
        controls_state.alert_type = alert_type
        controls_state.alert_status = alert_status
        self.pub_master.send("controlsState", controls_state)

        return command, new_alerts

    def _send_can(self, time: float, command: ActuatorCommand) -> None:
        """Pack and send the actuator command frames on the CAN bus."""
        counter = self.advance_can_counter()
        angle = command.steering_angle_deg
        self.can_bus.send(
            CANFrame(
                self._addr_steering_control,
                self._pack_steering_control(counter, angle, clamp(angle / 100.0, -1.0, 1.0)),
                timestamp=time,
            )
        )
        brake = command.brake
        self.can_bus.send(
            CANFrame(
                self._addr_acc_control,
                self._pack_acc_control(counter, command.accel, brake, 1.0 if brake > 0 else 0.0),
                timestamp=time,
            )
        )


def apply_output_limit_columns(state: "BatchState", n: int) -> None:
    """Vectorised output-limit tail of :meth:`OpenPilot._plan_cycle`.

    Splits the planned acceleration into gas/brake channels and applies
    the per-frame steering rate limit against the previously commanded
    angle, writing the actuator pre-hook command columns (``cmd_*``).
    ``max(0.0, x)`` is realised as ``np.where(x > 0, x, 0.0)`` so the
    zero branch carries the scalar path's exact ``+0.0``.
    """
    accel = state.plan_accel[:n]
    w0 = state.w0[:n]
    w1 = state.w1[:n]

    np.minimum(accel, state.p_out_accel_max[:n], out=w0)
    np.maximum(w0, state.p_out_brake_min[:n], out=w0)
    np.copyto(state.cmd_accel[:n], np.where(w0 > 0.0, w0, 0.0))
    np.negative(w0, out=w1)
    np.copyto(state.cmd_brake[:n], np.where(w1 > 0.0, w1, 0.0))

    prev = state.plan_prev_steer[:n]
    np.subtract(state.plan_output_deg[:n], prev, out=w0)
    np.minimum(w0, state.p_steer_delta_max[:n], out=w0)
    np.negative(state.p_steer_delta_max[:n], out=w1)
    np.maximum(w0, w1, out=w0)
    np.add(prev, w0, out=state.cmd_steer[:n])
