"""Tests for the attack engine, eavesdropper and CAN tampering."""

import pytest

from repro.can.honda import ADDR, HONDA_DBC
from repro.core.attack_engine import AttackEngine
from repro.core.attack_types import AttackType
from repro.core.can_tamper import CanAttackInterceptor, tamper_signal
from repro.core.eavesdropper import Eavesdropper
from repro.core.state_inference import StateInference
from repro.core.strategies import ContextAwareStrategy, RandomStartDurationStrategy
from repro.messaging.messages import (
    CarState,
    GpsLocationExternal,
    LaneLine,
    ModelV2,
    RadarLead,
    RadarState,
)
from repro.sim.vehicle import ActuatorCommand


def publish_state(message_bus, v_ego=20.0, lead_distance=30.0, v_rel=-5.0, lateral_offset=0.0):
    message_bus.publish("gpsLocationExternal", GpsLocationExternal(speed=v_ego))
    message_bus.publish(
        "modelV2",
        ModelV2(
            lane_lines=(LaneLine(offset=1.8 - lateral_offset), LaneLine(offset=-1.8 - lateral_offset)),
            lateral_offset=lateral_offset,
            lane_width=3.6,
        ),
    )
    message_bus.publish(
        "radarState",
        RadarState(lead_one=RadarLead(d_rel=lead_distance, v_rel=v_rel, v_lead=v_ego + v_rel)),
    )


CAR = CarState(v_ego=20.0, cruise_speed=26.82, cruise_enabled=True)


class TestEavesdropper:
    def test_snapshot_collects_all_three_services(self, message_bus):
        eavesdropper = Eavesdropper(message_bus)
        publish_state(message_bus)
        snapshot = eavesdropper.snapshot(1.0)
        assert snapshot.complete
        assert snapshot.v_ego == pytest.approx(20.0)
        assert snapshot.has_lead
        assert snapshot.lead_distance == pytest.approx(30.0)

    def test_snapshot_incomplete_before_messages(self, message_bus):
        eavesdropper = Eavesdropper(message_bus)
        assert not eavesdropper.snapshot(0.0).complete

    def test_eavesdropper_is_passive(self, message_bus):
        # Creating an eavesdropper publishes nothing on the bus.
        before = message_bus.publication_count("radarState")
        Eavesdropper(message_bus)
        assert message_bus.publication_count("radarState") == before


class TestAttackEngineActivation:
    def test_context_aware_activates_on_critical_context(self, message_bus):
        engine = AttackEngine(message_bus, AttackType.ACCELERATION, ContextAwareStrategy(), seed=1)
        # Critical: headway 30/20 = 1.5 s <= t_safe and closing (v_rel < 0).
        publish_state(message_bus, v_ego=20.0, lead_distance=30.0, v_rel=-5.0)
        command = engine.output_hook(1.0, ActuatorCommand(accel=0.5), CAR)
        assert engine.active
        assert engine.record.activated
        assert command.accel == pytest.approx(2.0)  # strategic limit

    def test_context_aware_waits_in_benign_context(self, message_bus):
        engine = AttackEngine(message_bus, AttackType.ACCELERATION, ContextAwareStrategy(), seed=1)
        publish_state(message_bus, v_ego=20.0, lead_distance=150.0, v_rel=-2.0)
        command = engine.output_hook(1.0, ActuatorCommand(accel=0.5), CAR)
        assert not engine.active
        assert command.accel == pytest.approx(0.5)

    def test_random_strategy_activates_on_timer_not_context(self, message_bus):
        strategy = RandomStartDurationStrategy(start_range=(2.0, 2.0), duration_range=(1.0, 1.0))
        engine = AttackEngine(message_bus, AttackType.DECELERATION, strategy, seed=1)
        publish_state(message_bus, v_ego=20.0, lead_distance=150.0, v_rel=-2.0)
        engine.output_hook(1.0, ActuatorCommand(), CAR)
        assert not engine.active
        publish_state(message_bus, v_ego=20.0, lead_distance=150.0, v_rel=-2.0)
        command = engine.output_hook(2.5, ActuatorCommand(), CAR)
        assert engine.active
        assert command.brake == pytest.approx(4.0)

    def test_attack_stops_after_hazard_notification(self, message_bus):
        engine = AttackEngine(message_bus, AttackType.ACCELERATION, ContextAwareStrategy(), seed=1)
        publish_state(message_bus, v_ego=20.0, lead_distance=30.0, v_rel=-5.0)
        engine.output_hook(1.0, ActuatorCommand(), CAR)
        engine.notify_hazard()
        publish_state(message_bus, v_ego=20.0, lead_distance=20.0, v_rel=-5.0)
        command = engine.output_hook(1.1, ActuatorCommand(accel=0.2), CAR)
        assert not engine.active
        assert command.accel == pytest.approx(0.2)
        assert engine.record.deactivation_time == pytest.approx(1.1)

    def test_attack_stops_when_driver_engages(self, message_bus):
        engine = AttackEngine(message_bus, AttackType.ACCELERATION, ContextAwareStrategy(), seed=1)
        publish_state(message_bus, v_ego=20.0, lead_distance=30.0, v_rel=-5.0)
        engine.output_hook(1.0, ActuatorCommand(), CAR)
        engine.notify_driver_engaged()
        publish_state(message_bus, v_ego=20.0, lead_distance=30.0, v_rel=-5.0)
        command = engine.output_hook(1.1, ActuatorCommand(accel=0.2), CAR)
        assert command.accel == pytest.approx(0.2)
        assert engine.record.stopped_by_driver

    def test_no_reactivation_after_deactivation(self, message_bus):
        strategy = RandomStartDurationStrategy(start_range=(1.0, 1.0), duration_range=(0.5, 0.5))
        engine = AttackEngine(message_bus, AttackType.ACCELERATION, strategy, seed=1)
        for time in (1.0, 1.2, 1.6, 2.0, 3.0):
            publish_state(message_bus, v_ego=20.0, lead_distance=30.0, v_rel=-5.0)
            engine.output_hook(time, ActuatorCommand(), CAR)
        assert not engine.active
        assert engine.record.injected_steps == 2

    def test_record_duration(self, message_bus):
        strategy = RandomStartDurationStrategy(start_range=(1.0, 1.0), duration_range=(0.5, 0.5))
        engine = AttackEngine(message_bus, AttackType.ACCELERATION, strategy, seed=1)
        for time in (1.0, 1.3, 1.6):
            publish_state(message_bus, v_ego=20.0, lead_distance=30.0, v_rel=-5.0)
            engine.output_hook(time, ActuatorCommand(), CAR)
        assert engine.record.duration == pytest.approx(0.6, abs=0.11)


class TestCanTampering:
    def test_tamper_signal_rewrites_and_fixes_checksum(self):
        frame = HONDA_DBC.encode("STEERING_CONTROL", {"STEER_ANGLE_CMD": 5.0}, counter=3)
        tampered = tamper_signal(frame, HONDA_DBC, {"STEER_ANGLE_CMD": 0.25})
        decoded = HONDA_DBC.decode(tampered)  # checksum verified here
        assert decoded["STEER_ANGLE_CMD"] == pytest.approx(0.25, abs=0.01)
        assert decoded["COUNTER"] == 3

    def test_interceptor_corrupts_acc_frames_when_attack_active(self, message_bus, can_bus):
        engine = AttackEngine(message_bus, AttackType.ACCELERATION, ContextAwareStrategy(), seed=1)
        interceptor = CanAttackInterceptor(engine).attach(can_bus)
        interceptor.observe_car_state(1.0, CAR)
        publish_state(message_bus, v_ego=20.0, lead_distance=30.0, v_rel=-5.0)
        frame = HONDA_DBC.encode(
            "ACC_CONTROL", {"ACCEL_COMMAND": 0.3, "BRAKE_COMMAND": 0.0}, timestamp=1.0
        )
        can_bus.send(frame)
        stored = can_bus.latest(ADDR["ACC_CONTROL"])
        assert HONDA_DBC.decode(stored)["ACCEL_COMMAND"] == pytest.approx(2.0, abs=0.01)
        assert can_bus.tampered_count == 1

    def test_interceptor_passes_frames_through_when_inactive(self, message_bus, can_bus):
        engine = AttackEngine(message_bus, AttackType.ACCELERATION, ContextAwareStrategy(), seed=1)
        CanAttackInterceptor(engine).attach(can_bus)
        publish_state(message_bus, v_ego=20.0, lead_distance=150.0, v_rel=-2.0)
        frame = HONDA_DBC.encode(
            "ACC_CONTROL", {"ACCEL_COMMAND": 0.3, "BRAKE_COMMAND": 0.0}, timestamp=1.0
        )
        can_bus.send(frame)
        assert can_bus.tampered_count == 0


def count_calls(monkeypatch, obj, name):
    """Wrap ``obj.name`` so each call is counted in the returned list."""
    calls = []
    original = getattr(obj, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(obj, name, counted)
    return calls


class TestSensorRateAttacker:
    def test_infers_only_on_fresh_snapshots(self, message_bus, monkeypatch):
        engine = AttackEngine(message_bus, AttackType.ACCELERATION, ContextAwareStrategy(), seed=1)
        inferred = count_calls(monkeypatch, engine.inference, "infer")
        publish_state(message_bus, v_ego=20.0, lead_distance=150.0, v_rel=-2.0)
        engine.output_hook(1.0, ActuatorCommand(), CAR)
        context = engine.last_context
        engine.output_hook(1.01, ActuatorCommand(), CAR)
        engine.output_hook(1.02, ActuatorCommand(), CAR)
        assert len(inferred) == 1
        assert engine.last_context is context
        assert context.time == 1.02
        assert context == StateInference().infer(engine.eavesdropper.snapshot(1.02))

        message_bus.publish("radarState", RadarState())
        engine.output_hook(1.03, ActuatorCommand(), CAR)
        assert len(inferred) == 2
        assert not engine.last_context.has_lead

    def test_timer_strategy_matches_no_rules_before_start(self, message_bus, monkeypatch):
        strategy = RandomStartDurationStrategy(start_range=(2.0, 2.0), duration_range=(1.0, 1.0))
        engine = AttackEngine(message_bus, AttackType.DECELERATION, strategy, seed=1)
        matched = count_calls(monkeypatch, engine.matcher, "match")
        for time in (0.5, 1.0, 1.5, 1.99, 2.0, 2.5):
            publish_state(message_bus, v_ego=20.0, lead_distance=150.0, v_rel=2.0)
            engine.output_hook(time, ActuatorCommand(), CAR)
        assert engine.active
        # Non-steering: the activation itself never needed the matches.
        assert matched == []

    @pytest.mark.parametrize("lateral_offset, direction", [(-0.9, -1), (0.9, +1)])
    def test_steering_timer_attack_takes_direction_from_matches(
        self, message_bus, monkeypatch, lateral_offset, direction
    ):
        strategy = RandomStartDurationStrategy(start_range=(2.0, 2.0), duration_range=(1.0, 1.0))
        engine = AttackEngine(message_bus, AttackType.ACCELERATION_STEERING, strategy, seed=1)
        matched = count_calls(monkeypatch, engine.matcher, "match")
        for time in (1.0, 1.5, 2.0, 2.5):
            # A lane edge within 0.1 m: rule 3 (left) or rule 4 (right).
            publish_state(
                message_bus, v_ego=20.0, lead_distance=150.0, v_rel=2.0,
                lateral_offset=lateral_offset,
            )
            engine.output_hook(time, ActuatorCommand(), CAR)
        assert engine.record.activation_time == 2.0
        assert engine.record.steer_direction == direction
        assert len(matched) == 1  # at activation, and only then

    def test_no_rules_matched_once_active(self, message_bus, monkeypatch):
        engine = AttackEngine(message_bus, AttackType.ACCELERATION, ContextAwareStrategy(), seed=1)
        matched = count_calls(monkeypatch, engine.matcher, "match")
        for time in (1.0, 1.1, 1.2):
            publish_state(message_bus, v_ego=20.0, lead_distance=30.0, v_rel=-5.0)
            engine.output_hook(time, ActuatorCommand(), CAR)
        assert engine.active
        assert len(matched) == 1

    def test_no_rules_matched_after_driver_takeover(self, message_bus, monkeypatch):
        engine = AttackEngine(message_bus, AttackType.ACCELERATION, ContextAwareStrategy(), seed=1)
        matched = count_calls(monkeypatch, engine.matcher, "match")
        engine.notify_driver_engaged()
        publish_state(message_bus, v_ego=20.0, lead_distance=30.0, v_rel=-5.0)
        engine.output_hook(1.0, ActuatorCommand(), CAR)
        assert matched == []
        assert not engine.record.activated
