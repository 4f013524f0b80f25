"""Unit tests for the flight recorder (:mod:`repro.obs.recorder`)."""

import json

import pytest

from repro.core.attack_types import AttackType
from repro.injection.engine import SimulationConfig, run_simulation
from repro.core.strategies import strategy_by_name
from repro.obs.query import (
    hazard_view,
    iter_flight_records,
    load_flight_record,
    matches_trajectory_tail,
)
from repro.obs.recorder import (
    FLIGHT_RECORD_VERSION,
    FLIGHT_SAMPLE_FIELDS,
    FlightRecorder,
    FlightRecorderConfig,
)
from repro.resilience.errors import TaskExecutionError


def _recorder(tmp_path, **overrides) -> FlightRecorder:
    config = FlightRecorderConfig(output_dir=str(tmp_path), **overrides)
    return FlightRecorder(
        config, scenario="S1", attack="Deceleration", strategy="Context-Aware", seed=7
    )


class _FakeCommand:
    accel = 0.5
    brake = 0.0
    steering_angle_deg = 1.25


class _FakeContext:
    """Duck-typed StepContext carrying just what capture() reads."""

    def __init__(self, time):
        self.end_time = time
        self.ego_s = 10.0 * time
        self.ego_d = 0.1
        self.ego_speed = 20.0
        self.ego_heading_error = 0.0
        self.ego_steering_deg = 2.0
        self.lead_gap = 50.0
        self.lead_speed = 18.0
        self.adas_command = _FakeCommand()
        self.executed_command = _FakeCommand()
        self.driver_engaged = False
        self.collision = None
        self.new_hazards = ()
        self.lane_invasions = 0


class TestConfig:
    def test_rejects_non_positive_knobs(self, tmp_path):
        with pytest.raises(ValueError):
            FlightRecorderConfig(output_dir=str(tmp_path), capacity=0)


class TestRing:
    def test_ring_keeps_only_the_final_capacity_cycles(self, tmp_path):
        recorder = _recorder(tmp_path, capacity=5)
        for cycle in range(17):
            recorder.capture(_FakeContext(time=0.01 * cycle))
        path = recorder.dump("manual")
        record = load_flight_record(path)
        cycles = record.column("cycle")
        assert cycles == list(range(12, 17))
        assert record.meta["cycles"] == 17

    def test_samples_carry_every_declared_field(self, tmp_path):
        recorder = _recorder(tmp_path)
        recorder.capture(_FakeContext(time=0.5))
        record = load_flight_record(recorder.dump("manual"))
        assert record.fields == list(FLIGHT_SAMPLE_FIELDS)
        final = record.final_sample
        assert final["time"] == 0.5 and final["adas_accel"] == 0.5
        assert final["collision"] is False and final["new_hazards"] == 0


class TestFlushDecisions:
    class _Result:
        def __init__(self, accidents=0, hazards=0, alerts=0):
            self.accidents = accidents
            self.hazards = hazards
            self.alerts = alerts

    def test_trigger_precedence(self, tmp_path):
        recorder = _recorder(tmp_path)
        assert recorder.trigger_for(self._Result()) is None
        assert recorder.trigger_for(self._Result(alerts=1)) == "alert"
        assert recorder.trigger_for(self._Result(hazards=1, alerts=1)) == "hazard"
        assert (
            recorder.trigger_for(self._Result(accidents=1, hazards=1)) == "collision"
        )

    def test_always_flushes_boring_runs(self, tmp_path):
        recorder = _recorder(tmp_path, flush_on=("always",))
        assert recorder.trigger_for(self._Result()) == "always"

    def test_finalize_writes_only_when_triggered(self, tmp_path):
        recorder = _recorder(tmp_path)
        recorder.capture(_FakeContext(time=0.0))
        assert recorder.finalize(self._Result()) is None
        assert recorder.flushed_path is None
        path = recorder.finalize(self._Result(hazards=2))
        assert path is not None and recorder.flushed_path == path
        assert load_flight_record(path).meta["trigger"] == "hazard"

    def test_abort_respects_flush_on_and_swallows_write_errors(self, tmp_path):
        silent = _recorder(tmp_path, flush_on=("hazard",))
        assert silent.abort() is None
        recorder = _recorder(tmp_path)
        recorder.capture(_FakeContext(time=0.0))
        path = recorder.abort()
        assert load_flight_record(path).meta["trigger"] == "failure"
        # An unwritable directory must not raise out of abort().
        broken = FlightRecorder(
            FlightRecorderConfig(output_dir=str(tmp_path / "file-not-dir")),
            scenario="S1",
            attack=None,
            strategy="none",
            seed=0,
        )
        (tmp_path / "file-not-dir").write_text("occupied")
        assert broken.abort() is None


class TestArtifacts:
    def test_artifact_parses_and_carries_identity(self, tmp_path):
        recorder = _recorder(tmp_path)
        recorder.capture(_FakeContext(time=0.0))
        path = recorder.dump("manual")
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["version"] == FLIGHT_RECORD_VERSION
        assert payload["scenario"] == "S1" and payload["seed"] == 7
        record = load_flight_record(path)
        assert record.meta["attack"] == "Deceleration"
        assert [r.path for r in iter_flight_records(str(tmp_path))] == [path]

    def test_hazard_view_renders(self, tmp_path):
        recorder = _recorder(tmp_path)
        for cycle in range(8):
            recorder.capture(_FakeContext(time=0.01 * cycle))
        view = hazard_view(load_flight_record(recorder.dump("manual")), final_cycles=3)
        assert "scenario=S1" in view and "trigger=manual" in view
        assert view.count("\n") >= 5  # header + table header + 3 rows


class TestTrajectoryTail:
    def test_real_run_tail_matches_bit_for_bit(self, tmp_path):
        config = SimulationConfig(
            scenario="S2",
            initial_distance=40.0,
            seed=11,
            attack_type=AttackType.DECELERATION,
            record_trajectory=True,
        )
        recorder = FlightRecorderConfig(output_dir=str(tmp_path), capacity=128)
        result = run_simulation(
            config, strategy_by_name("Context-Aware"), recorder=recorder
        )
        assert result.hazards or result.accidents or result.alerts
        (record,) = list(iter_flight_records(str(tmp_path)))
        assert matches_trajectory_tail(record, result.trajectory)

    def test_tampered_record_fails_the_tail_match(self, tmp_path):
        config = SimulationConfig(
            scenario="S2",
            initial_distance=40.0,
            seed=11,
            attack_type=AttackType.DECELERATION,
            record_trajectory=True,
        )
        recorder = FlightRecorderConfig(output_dir=str(tmp_path), capacity=128)
        result = run_simulation(
            config, strategy_by_name("Context-Aware"), recorder=recorder
        )
        (record,) = list(iter_flight_records(str(tmp_path)))
        speed_index = record.fields.index("ego_speed")
        for sample in record.samples:  # the trajectory subsamples cycles,
            sample[speed_index] += 1e-9  # so corrupt every candidate
        assert not matches_trajectory_tail(record, result.trajectory)


class TestQuarantineFingerprints:
    def test_batched_failures_name_every_candidate_task(self):
        fingerprints = [f"scenario=S1 seed={i}" for i in range(9)]
        error = TaskExecutionError.wrap_batch(fingerprints, RuntimeError("boom"))
        assert error.fingerprints == tuple(fingerprints)
        for fp in fingerprints:
            assert fp in str(error)  # no "+N more" truncation
        assert "more" not in str(error)

    def test_fingerprints_survive_pickling(self):
        import pickle

        error = TaskExecutionError.wrap_batch(["a", "b", "c"], RuntimeError("x"))
        clone = pickle.loads(pickle.dumps(error))
        assert clone.fingerprints == ("a", "b", "c")
        assert clone.fingerprint == "a"
