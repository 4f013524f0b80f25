"""Unit tests for the kernel step pipeline (context + pipeline mechanics)."""

import pytest

from repro.injection.engine import Simulation, SimulationConfig
from repro.kernel import StepContext, StepPipeline
from repro.messaging.messages import CarState
from repro.sim.vehicle import ActuatorCommand


class _Recorder:
    def __init__(self, name, log):
        self.name = name
        self._log = log

    def run(self, ctx):
        self._log.append(self.name)


class TestStepPipeline:
    def make(self, log):
        return StepPipeline([_Recorder(n, log) for n in ("a", "b", "c")])

    def test_runs_stages_in_order(self):
        log = []
        pipeline = self.make(log)
        ctx = StepContext()
        pipeline.run_cycle(ctx)
        pipeline.run_cycle(ctx)
        assert log == ["a", "b", "c", "a", "b", "c"]

    def test_stage_names_and_lookup(self):
        pipeline = self.make([])
        assert pipeline.stage_names == ("a", "b", "c")
        assert pipeline.stage("b").name == "b"
        with pytest.raises(KeyError):
            pipeline.stage("nope")

    def test_empty_and_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            StepPipeline([])
        log = []
        with pytest.raises(ValueError):
            StepPipeline([_Recorder("a", log), _Recorder("a", log)])


class TestStepContext:
    def test_is_slotted_and_preallocated(self):
        ctx = StepContext()
        assert not hasattr(ctx, "__dict__")
        with pytest.raises(AttributeError):
            ctx.not_a_field = 1
        assert isinstance(ctx.car_state, CarState)
        assert isinstance(ctx.executed_command, ActuatorCommand)

    def test_initial_state(self):
        ctx = StepContext(cruise_speed=27.0)
        assert ctx.cruise_speed == 27.0
        assert ctx.lead is None and ctx.lead_gap is None
        assert not ctx.driver_engaged and not ctx.stop


class TestSimulationPipelineAssembly:
    def test_simulation_builds_the_eight_canonical_stages(self):
        sim = Simulation(SimulationConfig(scenario="S1", max_steps=10))
        from repro.analysis.metrics import RunResult

        result = RunResult(
            scenario="S1", initial_distance=70.0, attack_type=None,
            strategy="No-Attack", seed=0, driver_enabled=True, duration=0.0,
        )
        ctx, pipeline = sim.build_pipeline(result)
        assert pipeline.stage_names == (
            "sense", "perceive", "plan", "inject", "drive", "actuate", "detect", "record",
        )
        # The context is seeded with the initial world observation.
        assert ctx.lead_gap == pytest.approx(70.0)
        assert ctx.ego_speed == sim.world.ego.state.speed

    def test_context_objects_are_reused_across_cycles(self):
        sim = Simulation(SimulationConfig(scenario="S1", max_steps=10))
        from repro.analysis.metrics import RunResult

        result = RunResult(
            scenario="S1", initial_distance=70.0, attack_type=None,
            strategy="No-Attack", seed=0, driver_enabled=True, duration=0.0,
        )
        ctx, pipeline = sim.build_pipeline(result)
        car_state = ctx.car_state
        long_plan = ctx.long_plan
        executed = ctx.executed_command
        for _ in range(5):
            pipeline.run_cycle(ctx)
        assert ctx.car_state is car_state
        assert ctx.long_plan is long_plan
        assert ctx.executed_command is executed
        assert ctx.end_time == pytest.approx(0.05)


class TestRecordStageCapture:
    def test_record_stage_ends_with_the_flight_capture(self, tmp_path):
        from repro.obs.recorder import FlightRecorderConfig

        sim = Simulation(
            SimulationConfig(scenario="S1", max_steps=10),
            recorder=FlightRecorderConfig(output_dir=str(tmp_path)),
        )
        _, ctx, pipeline = sim.prepare()
        # No wrapping pipeline: the capture is the record stage's own.
        assert type(pipeline) is StepPipeline
        record = pipeline.stage("record")
        assert record.capture == sim.flight.capture
        seen = []
        record.capture = lambda c: seen.append(c.stop)
        pipeline.run_cycle(ctx)
        # The stop decision fires on the next cycle, before the capture.
        ctx.collision_time = -1.0
        pipeline.run_cycle(ctx)
        assert seen == [False, True]

    def test_record_stage_has_no_capture_without_a_recorder(self):
        sim = Simulation(SimulationConfig(scenario="S1", max_steps=10))
        _, _, pipeline = sim.prepare()
        assert sim.flight is None
        assert pipeline.stage("record").capture is None

    def test_probed_pipeline_runs_the_same_recording_stage(self, tmp_path):
        from repro.obs.recorder import FlightRecorderConfig
        from repro.telemetry import Telemetry, TelemetryConfig
        from repro.telemetry.probe import ProbedPipeline

        sim = Simulation(
            SimulationConfig(scenario="S1", max_steps=10),
            telemetry=Telemetry(TelemetryConfig()),
            recorder=FlightRecorderConfig(output_dir=str(tmp_path)),
        )
        _, ctx, pipeline = sim.prepare()
        # The probe times the stages it shares; the capture stays the
        # record stage's own, so both views run one capture per cycle.
        assert type(pipeline) is ProbedPipeline
        record = pipeline.stage("record")
        assert record.capture == sim.flight.capture
        seen = []
        record.capture = lambda c: seen.append(c.stop)
        for _ in range(len(pipeline.stages) + 1):
            pipeline.run_cycle(ctx)
        assert seen == [False] * (len(pipeline.stages) + 1)
