"""Golden-run equivalence of the kernel step pipeline.

``tests/golden/golden_runs.json`` was generated by the pre-kernel
(seed-architecture) simulation loop; these tests pin the kernel pipeline
to **bit-for-bit** the same :class:`~repro.analysis.metrics.RunResult`
for every catalog scenario and for one attacked run per attack type —
sequentially and through the parallel executor.

If a PR intentionally changes simulation behaviour, regenerate the
fixture with ``PYTHONPATH=src python tests/golden/generate_goldens.py``
and call the change out in the PR description.
"""

import json
import os
import sys

import pytest

from repro.analysis.metrics import RunResult
from repro.core.attack_types import AttackType
from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.engine import Simulation, SimulationConfig, run_simulation
from repro.core.strategies import strategy_by_name

_GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "golden"
)
sys.path.insert(0, _GOLDEN_DIR)

from generate_goldens import (  # noqa: E402  (path set up above)
    GOLDEN_PATH,
    golden_configs,
)


@pytest.fixture(scope="module")
def golden_runs():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["runs"]


def _keyed_configs():
    return {key: (config, strategy) for key, config, strategy in golden_configs()}


class TestGoldenEquivalence:
    @pytest.mark.parametrize(
        "key", [key for key, _, _ in golden_configs()],
    )
    def test_run_matches_golden(self, key, golden_runs):
        config, strategy_name = _keyed_configs()[key]
        strategy = strategy_by_name(strategy_name) if strategy_name else None
        result = run_simulation(config, strategy)
        golden = golden_runs[key]
        assert result.to_dict() == golden, f"kernel output diverged from golden for {key}"
        # And the golden record itself round-trips through RunResult.
        assert RunResult.from_dict(golden).to_dict() == golden

    def test_goldens_cover_every_catalog_scenario_and_attack_type(self, golden_runs):
        from repro.scenarios import CATALOG

        for name in CATALOG.names():
            assert f"catalog/{name}" in golden_runs
        for attack_type in AttackType:
            assert f"attack/{attack_type.value}" in golden_runs


class TestParallelKernelDeterminism:
    def test_workers_1_vs_4_identical_through_kernel(self):
        """The kernel path is bit-reproducible under the process pool."""
        config = CampaignConfig(
            strategy_name="Context-Aware",
            scenarios=("S1", "cut-in-short-gap"),
            initial_distances=(None,),
            attack_types=(AttackType.DECELERATION, AttackType.STEERING_LEFT),
            repetitions=1,
            max_steps=1500,
        )
        sequential = Campaign(config).run(workers=1)
        parallel = Campaign(config).run(workers=4)
        assert len(sequential) == len(parallel) == config.total_runs
        assert sequential == parallel


class TestRunResultSerializationRegression:
    def test_alerts_and_lane_invasions_survive_round_trip(self):
        """Regression: a run with alerts and lane invasions round-trips.

        The post-loop accounting now streams alerts/lane invasions out of
        the kernel context; this pins that the serialized record still
        carries them (alert tuples included) through to_dict/from_dict.
        """
        # An FCW/steerSaturated-free attack run still has lane invasions;
        # synthesise alerts on the record to exercise the tuple path.
        result = run_simulation(
            SimulationConfig(scenario="S1", initial_distance=70.0, seed=3, max_steps=1200)
        )
        assert result.lane_invasions > 0
        result.alerts.append(("fcw", 1.23))
        result.alerts.append(("steerSaturated", 4.56))
        restored = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored.alerts == result.alerts
        assert restored.lane_invasions == result.lane_invasions
        assert restored == result

    def test_kernel_streams_alert_tuples_with_bus_timestamps(self):
        """Alerts accounted by the record stage keep (name, mono_time) form."""
        sim = Simulation(
            SimulationConfig(scenario="S1", initial_distance=70.0, seed=0, max_steps=200)
        )
        # Publish a synthetic alert mid-run semantics: run first, then
        # verify the subscription-driven accounting shape.
        result = sim.run()
        assert all(
            isinstance(name, str) and isinstance(time, float) for name, time in result.alerts
        )
