"""Property-based tests for the messaging bus and safety-limit algebra."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adas.limits import SafetyLimits
from repro.adas.openpilot import OpenPilot, OpenPilotConfig
from repro.can.bus import CANBus
from repro.messaging.bus import MessageBus
from repro.messaging.messages import CarState

#: The services the ADAS publishes every 10 ms cycle.
ADAS_SERVICES = ("driverMonitoringState", "carState", "carControl", "controlsState")


class TestBusProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=40.0), min_size=1, max_size=30))
    def test_conflated_subscriber_always_sees_last_message(self, speeds):
        bus = MessageBus()
        sub = bus.subscribe("carState", conflate=True)
        for speed in speeds:
            bus.publish("carState", CarState(v_ego=speed))
        assert sub.latest.data.v_ego == speeds[-1]
        assert len(sub.drain()) == 1

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=100))
    def test_sequence_numbers_dense_and_ordered(self, count):
        bus = MessageBus()
        sub = bus.subscribe("carState")
        for _ in range(count):
            bus.publish("carState", CarState())
        seqs = [event.seq for event in sub.drain()[-1024:]]
        assert seqs == sorted(seqs)
        assert bus.publication_count("carState") == count


class TestAudienceProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        audience=st.sampled_from(("none", "conflated", "queued", "tap")),
        cycles=st.integers(min_value=1, max_value=40),
        tap_at=st.integers(min_value=0, max_value=39),
    )
    def test_adas_sequence_numbers_independent_of_audience(self, audience, cycles, tap_at):
        """Whoever listens, each ADAS service counts one publication per
        cycle, so a late subscriber sees the same first ``seq``."""
        bus = MessageBus()
        openpilot = OpenPilot(OpenPilotConfig(), bus, CANBus())
        if audience in ("conflated", "queued"):
            for service in ADAS_SERVICES:
                bus.subscribe(service, conflate=audience == "conflated")
        tap_at = min(tap_at, cycles - 1)
        tapped = []
        for cycle in range(cycles):
            if audience == "tap" and cycle == tap_at:
                bus.add_tap(tapped.append)
            bus.set_time(cycle * 0.01)
            openpilot.step(cycle * 0.01, CarState(v_ego=20.0, cruise_speed=26.82))

        for service in ADAS_SERVICES:
            assert bus.heard(service) == (audience != "none")
            assert bus.publication_count(service) == cycles
            if audience == "tap":
                seqs = [event.seq for event in tapped if event.service == service]
                assert seqs == list(range(tap_at, cycles))
        late = {service: bus.subscribe(service, conflate=True) for service in ADAS_SERVICES}
        openpilot.step(cycles * 0.01, CarState(v_ego=20.0, cruise_speed=26.82))
        for service, sub in late.items():
            assert sub.latest.seq == cycles


class TestSafetyLimitProperties:
    limits_strategy = st.builds(
        SafetyLimits,
        accel_max=st.floats(min_value=0.5, max_value=5.0),
        brake_min=st.floats(min_value=-6.0, max_value=-0.5),
        steer_delta_max_deg=st.floats(min_value=0.05, max_value=2.0),
    )

    @settings(max_examples=80, deadline=None)
    @given(limits_strategy, st.floats(min_value=-20.0, max_value=20.0))
    def test_clamped_accel_never_violates(self, limits, accel):
        clamped = limits.clamp_accel(accel)
        assert limits.brake_min - 1e-9 <= clamped <= limits.accel_max + 1e-9

    @settings(max_examples=80, deadline=None)
    @given(limits_strategy, st.floats(min_value=-30.0, max_value=30.0))
    def test_clamped_steer_delta_never_violates(self, limits, delta):
        clamped = limits.clamp_steer_delta(delta)
        assert abs(clamped) <= limits.steer_delta_max_deg + 1e-9
        assert not limits.violates(0.0, 0.0, clamped)
