"""The flight-recorder tap must never change simulation results.

The tap rides inside the kernel's cycle loop (scalar delegation wrapper,
batched ``record`` stage hook), so the hard guarantee it must keep is
the same one the batch executor keeps: **bit-for-bit** golden equality
with capture enabled at full rate — for every golden run sequentially
and through the lockstep batch runner at the production tier thresholds
and with every tier forced on, so the scalar fallback, the fused codec
and the dense SoA path all run tapped.
"""

import json
import os
import sys

import pytest

from repro.core.strategies import strategy_by_name
from repro.injection.engine import run_simulation
from repro.kernel import run_batched
from repro.obs.recorder import FlightRecorderConfig

_GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "golden"
)
sys.path.insert(0, _GOLDEN_DIR)

from generate_goldens import GOLDEN_PATH, golden_configs  # noqa: E402


@pytest.fixture(scope="module")
def golden_runs():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["runs"]


def _recorder(tmp_path) -> FlightRecorderConfig:
    # Full-rate capture, no flushing: the pure observation cost/effect.
    return FlightRecorderConfig(
        output_dir=str(tmp_path), capacity=256, capture_every=1, flush_on=()
    )


def _golden_tasks():
    tasks, keys = [], []
    for key, config, strategy_name in golden_configs():
        strategy = strategy_by_name(strategy_name) if strategy_name else None
        tasks.append((config, strategy))
        keys.append(key)
    return keys, tasks


class TestTapGoldenEquivalence:
    @pytest.mark.parametrize("key", [key for key, _, _ in golden_configs()])
    def test_tapped_run_matches_golden(self, key, golden_runs, tmp_path):
        configs = {k: (c, s) for k, c, s in golden_configs()}
        config, strategy_name = configs[key]
        strategy = strategy_by_name(strategy_name) if strategy_name else None
        result = run_simulation(config, strategy, recorder=_recorder(tmp_path))
        assert result.to_dict() == golden_runs[key], (
            f"flight-recorder tap changed the result of {key}"
        )

    @pytest.mark.parametrize("batch_size", [8, 64])
    def test_tapped_batched_runs_match_goldens(
        self, batch_size, golden_runs, tmp_path, kernel_tiers
    ):
        keys, tasks = _golden_tasks()
        results = run_batched(
            tasks, batch_size=batch_size, recorder=_recorder(tmp_path)
        )
        for key, result in zip(keys, results):
            assert result.to_dict() == golden_runs[key], (
                f"tapped batch (batch_size={batch_size}, {kernel_tiers} tiers) "
                f"diverged from golden for {key}"
            )
