"""One complete fault-injection simulation.

The :class:`Simulation` reproduces the platform of Fig. 5 in the paper:
OpenPilot (ADAS substitute) bridged to the driving simulator, a driver
reaction simulator, and the attack/fault-injection engine hooked into the
ADAS output stage.  The control cycle itself is the kernel step pipeline
(:mod:`repro.kernel`): a preallocated :class:`~repro.kernel.StepContext`
runs through sense → perceive → plan → inject → drive → actuate →
detect → record once per 10 ms step, so the hot loop is free of per-step
observation rebuilding.  :func:`run_simulation` is the single-call entry
point used by examples, tests and the campaign runner.
"""

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.adas.openpilot import OpenPilot, OpenPilotConfig
from repro.analysis.hazards import HazardMonitor, HazardParams
from repro.analysis.metrics import RunResult
from repro.can.bus import CANBus
from repro.core.attack_engine import AttackEngine, AttackTuning
from repro.core.attack_types import AttackType
from repro.core.strategies import AttackStrategy, NoAttackStrategy
from repro.driver.reaction import DriverParams, DriverReactionSimulator
from repro.kernel import (
    ActuateStage,
    DetectStage,
    DriveStage,
    InjectStage,
    PerceiveStage,
    PlanStage,
    RecordStage,
    SenseStage,
    StepContext,
    StepPipeline,
)
from repro.messaging.bus import MessageBus
from repro.obs.recorder import FlightRecorder, FlightRecorderConfig
from repro.sim.scenarios import Scenario, build_scenario
from repro.sim.sensors import SensorNoise
from repro.sim.units import DT, STEPS_PER_SIMULATION
from repro.sim.world import World, WorldConfig
from repro.telemetry import ProbedPipeline, Telemetry


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of one simulation run.

    Attributes:
        scenario: A scenario name (the paper's ``"S1"``..``"S4"`` or any
            name registered in :data:`repro.scenarios.CATALOG`) or a fully
            built :class:`~repro.sim.scenarios.Scenario`.
        initial_distance: Initial gap to the lead vehicle, m.  The default
            ``None`` keeps the scenario's own gap — for the paper's S1–S4
            that is 70 m, and for catalog/sampled scenarios the gap is
            part of the scenario design (multi-actor scripts are tuned to
            it), so only pass a distance when sweeping that axis
            deliberately.
        seed: Seed for every stochastic component of this run.
        attack_type: Attack type to inject, or ``None`` for an attack-free
            run.
        driver_enabled: Whether the simulated alert driver is in the loop.
        max_steps: Number of 10 ms control steps (paper: 5000 = 50 s).
        stop_after_collision: Seconds of simulation kept after the first
            collision before terminating early.
        noise: Sensor noise model.
        record_trajectory: Record the ego trajectory (needed for Fig. 7).
        driver_reaction_time: Average driver reaction time, s.
        hazard_params: Hazard detection thresholds.
        attack_tuning: Optional per-run attack-engine tuning (corruption
            limit sets, context-table thresholds) — the decode target of
            the attack-parameter search.  ``None`` keeps the defaults.
        track_safety_margin: Record the run's minimum lead TTC and gap
            into :attr:`RunResult.min_ttc` / :attr:`RunResult.min_lead_gap`
            (used by search objectives to rank near-misses); off by
            default so the hot loop pays nothing.
    """

    scenario: Union[str, Scenario] = "S1"
    initial_distance: Optional[float] = None
    seed: int = 0
    attack_type: Optional[AttackType] = None
    driver_enabled: bool = True
    max_steps: int = STEPS_PER_SIMULATION
    stop_after_collision: float = 0.5
    noise: SensorNoise = field(default_factory=SensorNoise)
    record_trajectory: bool = False
    driver_reaction_time: float = 2.5
    hazard_params: HazardParams = field(default_factory=HazardParams)
    attack_tuning: Optional[AttackTuning] = None
    track_safety_margin: bool = False

    def build_scenario(self) -> Scenario:
        if isinstance(self.scenario, Scenario):
            if self.initial_distance is None:
                return self.scenario
            return self.scenario.with_initial_distance(self.initial_distance)
        return build_scenario(self.scenario, self.initial_distance)


class Simulation:
    """A single end-to-end simulation run."""

    def __init__(
        self,
        config: SimulationConfig,
        strategy: Optional[AttackStrategy] = None,
        telemetry: Optional[Telemetry] = None,
        recorder: Optional[FlightRecorderConfig] = None,
    ):
        self.config = config
        self.strategy = strategy or NoAttackStrategy()
        self.telemetry = telemetry
        self._probe: Optional[ProbedPipeline] = None

        scenario = config.build_scenario()
        self.message_bus = MessageBus()
        self.can_bus = CANBus()
        # Alerts are accounted by the kernel's record stage from this
        # subscription (drained each step), instead of re-scanning a
        # message log after the run.
        self._alert_sub = self.message_bus.subscribe("alertEvent")

        self.world = World(
            WorldConfig(
                scenario=scenario,
                noise=config.noise,
                seed=config.seed,
                record_trajectory=config.record_trajectory,
            ),
            self.message_bus,
            self.can_bus,
        )
        self.openpilot = OpenPilot(OpenPilotConfig(), self.message_bus, self.can_bus)

        self.attack_engine: Optional[AttackEngine] = None
        if config.attack_type is not None and not isinstance(self.strategy, NoAttackStrategy):
            tuning = config.attack_tuning
            engine_kwargs: dict = {}
            if tuning is not None:
                engine_kwargs["context_table"] = tuning.build_context_table()
                engine_kwargs["corruption_limits"] = tuning.corruption_limits
            self.attack_engine = AttackEngine(
                self.message_bus,
                attack_type=config.attack_type,
                strategy=self.strategy,
                seed=config.seed + 7919,
                **engine_kwargs,
            )
            self.openpilot.add_output_hook(self.attack_engine.output_hook)

        self.driver = DriverReactionSimulator(
            self.message_bus,
            params=DriverParams(
                reaction_time=config.driver_reaction_time, enabled=config.driver_enabled
            ),
        )
        self.hazard_monitor = HazardMonitor(config.hazard_params)

        # The per-run flight recorder (black box): filled by the record
        # stage, flushed in finalize() when the run turns interesting.
        self.flight: Optional[FlightRecorder] = None
        if recorder is not None:
            self.flight = recorder.recorder_for(self)

    def build_pipeline(self, result: RunResult) -> "tuple[StepContext, StepPipeline]":
        """Assemble the kernel step pipeline and its preallocated context.

        The context carries the per-cycle state (decoded car state, plans,
        commands, kinematics) through the ordered stages; everything is
        allocated here, once per run.  The record stage ends with the
        flight recorder's capture when the run has a recorder.
        """
        world = self.world
        scenario = world.config.scenario
        road = world.road
        ctx = StepContext(
            dt=DT,
            cruise_speed=scenario.cruise_speed,
            ego_width=world.ego.params.width,
            road_left_lane_line=road.left_lane_line,
            road_right_lane_line=road.right_lane_line,
            road_right_guardrail=road.right_guardrail,
            road_left_road_edge=road.left_road_edge,
            follower=world.follower,
            others=world.collision_others(),
        )
        # Seed the kinematic fields from the initial world state: the
        # drive stage of step k reads the post-step observation of step
        # k-1, which for the first step is the initial state.
        world.observe_into(ctx)
        pipeline = StepPipeline(
            (
                SenseStage(world),
                PerceiveStage(world),
                PlanStage(self.openpilot),
                InjectStage(self.openpilot),
                DriveStage(world, self.driver, self.openpilot, self.attack_engine, result),
                ActuateStage(world),
                DetectStage(world.lane_monitor, world.collision_detector, self.hazard_monitor),
                RecordStage(
                    world, result, self.attack_engine, self._alert_sub,
                    self.config.stop_after_collision,
                    track_safety_margin=self.config.track_safety_margin,
                    capture=self.flight.capture if self.flight is not None else None,
                ),
            )
        )
        return ctx, pipeline

    def prepare(self) -> "tuple[RunResult, StepContext, StepPipeline]":
        """Build the result record, context and pipeline for one run.

        Split out of :meth:`run` so the lockstep batch executor
        (:mod:`repro.kernel.batch`) can own the cycle loop itself; the
        pair ``prepare()`` / ``finalize()`` brackets exactly what
        :meth:`run` does around its loop.
        """
        config = self.config
        scenario = self.world.config.scenario
        result = RunResult(
            scenario=scenario.name,
            initial_distance=scenario.initial_distance,
            attack_type=config.attack_type.value if config.attack_type else None,
            strategy=self.strategy.name,
            seed=config.seed,
            driver_enabled=config.driver_enabled,
            duration=0.0,
        )
        ctx, pipeline = self.build_pipeline(result)
        if self.telemetry is not None:
            self._probe = self.telemetry.probe(pipeline)
            if self._probe is not None:
                pipeline = self._probe
        return result, ctx, pipeline

    def finalize(
        self, result: RunResult, ctx: StepContext, wall_ns: Optional[int] = None
    ) -> RunResult:
        """Post-loop accounting: durations, driver/attack records, trajectory."""
        result.duration = self.world.time
        result.lane_invasions = ctx.lane_invasions
        result.driver_perceived = self.driver.perceived
        result.driver_perception_reason = self.driver.perceived_reason or ""

        if self.attack_engine is not None:
            record = self.attack_engine.record
            result.attack_activated = record.activated
            result.attack_activation_time = record.activation_time
            result.attack_duration = record.duration
            result.attack_reason = record.activation_reason
            result.attack_stopped_by_driver = record.stopped_by_driver
            self.attack_engine.close()

        if self.config.record_trajectory:
            result.trajectory = list(self.world.trajectory)

        if self.flight is not None:
            self.flight.finalize(result)
        if self._probe is not None:
            self._probe.flush()
        if self.telemetry is not None:
            self.telemetry.record_run(
                result,
                steps=self.world.step_count,
                can_sent=self.can_bus.sent_count,
                can_tampered=self.can_bus.tampered_count,
                wall_ns=wall_ns,
            )
        return result

    def run(self) -> RunResult:
        """Run the simulation to completion and return the result record."""
        telemetry = self.telemetry
        result, ctx, pipeline = self.prepare()
        run_cycle = pipeline.run_cycle
        if telemetry is None:
            for _ in range(self.config.max_steps):
                run_cycle(ctx)
                if ctx.stop:
                    break
            return self.finalize(result, ctx)
        with telemetry.span(
            "run", scenario=result.scenario, seed=result.seed,
            attack=result.attack_type or "none",
        ):
            start_ns = telemetry.now_ns()
            for _ in range(self.config.max_steps):
                run_cycle(ctx)
                if ctx.stop:
                    break
            wall_ns = telemetry.now_ns() - start_ns
        return self.finalize(result, ctx, wall_ns=wall_ns)

    def flush_flight(self, trigger: str = "failure") -> None:
        """Best-effort black-box flush when the run dies mid-loop."""
        if self.flight is not None:
            self.flight.abort(trigger)


def run_simulation(
    config: SimulationConfig,
    strategy: Optional[AttackStrategy] = None,
    telemetry: Optional[Telemetry] = None,
    recorder: Optional[FlightRecorderConfig] = None,
) -> RunResult:
    """Build and run one simulation (convenience wrapper)."""
    sim = Simulation(config, strategy, telemetry=telemetry, recorder=recorder)
    if recorder is None:
        return sim.run()
    try:
        return sim.run()
    except BaseException:
        sim.flush_flight()
        raise
