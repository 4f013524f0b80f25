"""Tests for the top-level ADAS control loop."""

import pytest

from repro.adas.openpilot import OpenPilot, OpenPilotConfig
from repro.can.honda import ADDR, HONDA_DBC
from repro.messaging.messages import CarState, LaneLine, ModelV2, RadarLead, RadarState
from repro.sim.vehicle import ActuatorCommand


@pytest.fixture
def openpilot(message_bus, can_bus):
    return OpenPilot(OpenPilotConfig(), message_bus, can_bus)


def publish_perception(message_bus, lateral_offset=0.0, lead=None):
    message_bus.publish(
        "modelV2",
        ModelV2(
            lane_lines=(LaneLine(offset=1.8 - lateral_offset), LaneLine(offset=-1.8 - lateral_offset)),
            lateral_offset=lateral_offset,
            lane_width=3.6,
        ),
    )
    message_bus.publish("radarState", RadarState(lead_one=lead))


def car_state(v_ego=20.0, cruise=26.82, steering=0.0):
    return CarState(v_ego=v_ego, cruise_speed=cruise, cruise_enabled=True,
                    steering_angle_deg=steering)


class TestControlCycle:
    def test_sends_can_frames_each_cycle(self, openpilot, message_bus, can_bus):
        publish_perception(message_bus)
        openpilot.step(0.0, car_state())
        assert can_bus.latest(ADDR["STEERING_CONTROL"]) is not None
        assert can_bus.latest(ADDR["ACC_CONTROL"]) is not None

    def test_accelerates_towards_cruise_speed(self, openpilot, message_bus, can_bus):
        publish_perception(message_bus)
        result = openpilot.step(0.0, car_state(v_ego=15.0))
        assert result.command.accel > 0.0
        assert result.command.brake == 0.0

    def test_brakes_for_close_lead(self, openpilot, message_bus):
        lead = RadarLead(d_rel=20.0, v_rel=-10.0, v_lead=10.0)
        publish_perception(message_bus, lead=lead)
        result = openpilot.step(0.0, car_state(v_ego=20.0))
        assert result.command.brake > 0.0

    def test_output_accel_respects_openpilot_limits(self, openpilot, message_bus):
        publish_perception(message_bus)
        result = openpilot.step(0.0, car_state(v_ego=0.5))
        assert result.command.accel <= openpilot.config.output_limits.accel_max + 1e-9

    def test_steering_rate_limited_per_frame(self, openpilot, message_bus):
        publish_perception(message_bus, lateral_offset=-1.5)
        previous = 0.0
        for step in range(5):
            result = openpilot.step(step * 0.01, car_state())
            delta = result.command.steering_angle_deg - previous
            assert abs(delta) <= openpilot.config.output_limits.steer_delta_max_deg + 1e-9
            previous = result.command.steering_angle_deg

    def test_publishes_car_control_and_controls_state(self, openpilot, message_bus):
        control_sub = message_bus.subscribe("carControl")
        state_sub = message_bus.subscribe("controlsState")
        publish_perception(message_bus)
        openpilot.step(0.0, car_state())
        assert control_sub.latest is not None
        assert state_sub.latest is not None
        assert state_sub.latest.data.enabled

    def test_runs_without_perception_messages(self, openpilot):
        result = openpilot.step(0.0, car_state(steering=1.0))
        assert result.command.steering_angle_deg == pytest.approx(1.0, abs=0.6)


class TestOutputHooks:
    def test_hook_can_corrupt_command(self, openpilot, message_bus, can_bus):
        publish_perception(message_bus)

        def hook(time, command, cs):
            return ActuatorCommand(accel=2.4, brake=0.0,
                                   steering_angle_deg=command.steering_angle_deg)

        openpilot.add_output_hook(hook)
        result = openpilot.step(0.0, car_state(v_ego=26.82))
        assert result.command.accel == pytest.approx(2.4)
        assert result.pre_hook_command.accel < 2.4
        decoded = HONDA_DBC.decode(can_bus.latest(ADDR["ACC_CONTROL"]))
        assert decoded["ACCEL_COMMAND"] == pytest.approx(2.4, abs=0.01)

    def test_hook_removal(self, openpilot, message_bus):
        publish_perception(message_bus)
        hook = lambda t, c, s: ActuatorCommand(accel=2.4)  # noqa: E731
        openpilot.add_output_hook(hook)
        openpilot.remove_output_hook(hook)
        result = openpilot.step(0.0, car_state(v_ego=26.82))
        assert result.command.accel < 2.0

    def test_disengaged_adas_does_not_run_hooks_or_send_can(self, openpilot, message_bus, can_bus):
        publish_perception(message_bus)
        calls = []
        openpilot.add_output_hook(lambda t, c, s: calls.append(t) or c)
        openpilot.disengage()
        openpilot.step(0.0, car_state())
        assert calls == []
        assert can_bus.latest(ADDR["ACC_CONTROL"]) is None

    def test_fcw_evaluated_on_post_hook_brake(self, openpilot, message_bus):
        # The attack keeps the brake output below the FCW threshold, so the
        # FCW never fires even when the planner wants to brake hard
        # (Observation 2 of the paper).
        lead = RadarLead(d_rel=10.0, v_rel=-12.0, v_lead=8.0)
        publish_perception(message_bus, lead=lead)
        openpilot.add_output_hook(lambda t, c, s: ActuatorCommand(accel=2.0, brake=0.0,
                                                                  steering_angle_deg=c.steering_angle_deg))
        result = openpilot.step(0.0, car_state(v_ego=20.0))
        assert all(alert.name != "fcw" for alert in result.new_alerts)


class TestPublishedPayloads:
    def test_queued_subscriber_gets_fresh_payloads(self, openpilot, message_bus):
        subs = {name: message_bus.subscribe(name)
                for name in ("carState", "carControl", "controlsState")}
        publish_perception(message_bus)
        shared = car_state(v_ego=20.0)
        openpilot.step(0.0, shared)
        shared.v_ego = 21.0  # the kernel refreshes one car state in place
        openpilot.step(0.01, shared)
        car_states = [event.data for event in subs["carState"].drain()]
        assert [state.v_ego for state in car_states] == [20.0, 21.0]
        controls = [event.data for event in subs["carControl"].drain()]
        assert controls[0] is not controls[1]
        assert controls[0].actuators is not controls[1].actuators
        states = [event.data for event in subs["controlsState"].drain()]
        assert states[0] is not states[1]
