"""Integration tests for the scenario catalog and sampler.

Pins the two subsystem-level guarantees:

* every catalog scenario runs attack-free to completion with **no hazard
  flagged** (so hazards observed in attack campaigns are attributable to
  the attack, not the traffic script), and
* sampled campaigns are bit-identical between sequential and parallel
  execution (the determinism contract of ``(master_seed, index)`` seeding
  extends to scenario generation).
"""

import pytest

from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.engine import SimulationConfig, Simulation, run_simulation
from repro.scenarios import CATALOG, PAPER_SCENARIOS, ScenarioSampler


def _catalog_names():
    return list(CATALOG.names())


class TestCatalogScenariosAttackFree:
    @pytest.mark.parametrize("name", _catalog_names())
    def test_runs_to_completion_with_no_hazard(self, name):
        result = run_simulation(
            SimulationConfig(scenario=name, initial_distance=None, seed=3)
        )
        assert result.duration >= 49.9, f"{name} terminated early"
        assert not result.hazards, f"{name} flagged hazards: {result.hazards}"
        assert not result.accidents, f"{name} had accidents: {result.accidents}"

    def test_catalog_runs_differ_from_s1(self):
        # The scenarios must actually exercise different traffic, not alias
        # S1: compare a behaviour-sensitive observable.
        reference = run_simulation(
            SimulationConfig(scenario="S1", initial_distance=None, seed=3)
        )
        distinct = 0
        for name in _catalog_names():
            if name in PAPER_SCENARIOS:
                continue
            result = run_simulation(
                SimulationConfig(scenario=name, initial_distance=None, seed=3)
            )
            if (
                result.lane_invasions != reference.lane_invasions
                or result.alerts != reference.alerts
            ):
                distinct += 1
        assert distinct >= 5


class TestLeadSelection:
    def _drive(self, name, steps=5000):
        sim = Simulation(SimulationConfig(scenario=name, initial_distance=None, seed=0))
        world = sim.world
        sequence = []
        current = object()
        for _ in range(steps):
            world.publish_sensors()
            world.publish_car_can()
            car_state = world.read_car_state()
            sim.openpilot.step(world.time, car_state)
            world.step()
            if world.lead is not current:
                current = world.lead
                sequence.append(None if current is None else current.kind)
        return sequence, world

    def test_cut_in_becomes_the_lead(self):
        sequence, world = self._drive("cut-in-short-gap")
        assert sequence[0] == "lead"
        assert "cut_in" in sequence
        # Once merged, the cut-in stays the tracked lead.
        assert world.lead is not None and world.lead.kind == "cut_in"

    def test_cut_out_reveals_the_slow_vehicle(self):
        sequence, world = self._drive("cut-out-reveal")
        assert sequence == ["lead", "slow_traffic"]
        # The departed lead really left the ego lane.
        assert abs(world.scenario_lead.state.d) > world.config.scenario.road.lane_width / 2.0

    def test_single_lead_scenarios_pin_the_scenario_lead(self):
        sequence, world = self._drive("S1", steps=500)
        assert sequence == ["lead"]
        assert world.lead is world.scenario_lead


class TestSampledCampaignDeterminism:
    def _config(self, runs=100):
        sampler = ScenarioSampler(master_seed=99)
        return CampaignConfig(
            strategy_name="No-Attack",
            scenarios=tuple(sampler.take(runs)),
            initial_distances=(None,),
            attack_types=(),
            repetitions=1,
            master_seed=99,
            max_steps=400,
        )

    def test_sampled_100_run_campaign_parallel_equals_sequential(self):
        config = self._config(100)
        assert config.total_runs == 100
        sequential = Campaign(config).run()
        parallel = Campaign(config).run(workers=4)
        assert sequential == parallel

    def test_sampled_runs_record_family_scenario_names(self):
        config = self._config(8)
        results = Campaign(config).run()
        names = [result.scenario for result in results]
        assert names == [spec.name for spec in config.scenarios]
        assert any("[" in name for name in names)

    def test_rebuilt_sampler_reproduces_the_campaign(self):
        first = Campaign(self._config(12)).run()
        second = Campaign(self._config(12)).run()
        assert first == second
