"""The flight recorder must never change simulation results, and must
record the same thing on every execution path.

The recorder's capture is the last step of the kernel's record stage,
which the scalar loop and the lockstep batch runner's record column both
run, so two guarantees are pinned here for every golden run:

* **bit-for-bit** golden equality with capture at full rate —
  sequentially and through the lockstep batch runner at the production
  tier threshold and with the dense tier forced on, so the scalar and
  dense tiers both run recorded;
* **the same record on both paths** — with every run flushed, the ring
  and cycle count written by ``run_simulation`` equal the ones written
  by ``run_batched``, sample for sample, with telemetry off and on.
"""

import json
import os
import sys

import pytest

from repro.core.strategies import strategy_by_name
from repro.injection.engine import run_simulation
from repro.kernel import run_batched
from repro.obs.query import iter_flight_records
from repro.obs.recorder import FlightRecorderConfig
from repro.telemetry import Telemetry, TelemetryConfig

_GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "golden"
)
sys.path.insert(0, _GOLDEN_DIR)

from generate_goldens import GOLDEN_PATH, golden_configs  # noqa: E402


@pytest.fixture(scope="module")
def golden_runs():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["runs"]


def _recorder(directory) -> FlightRecorderConfig:
    # Full-rate capture, every run flushed, so each path's records can
    # be compared run by run.
    return FlightRecorderConfig(output_dir=str(directory), capacity=256, flush_on=("always",))


def _golden_tasks():
    tasks, keys = [], []
    for key, config, strategy_name in golden_configs():
        strategy = strategy_by_name(strategy_name) if strategy_name else None
        tasks.append((config, strategy))
        keys.append(key)
    return keys, tasks


def _rings(directory) -> dict:
    """``(scenario, attack, strategy, seed) -> (cycles, samples)`` per record."""
    rings = {}
    for record in iter_flight_records(str(directory)):
        meta = record.meta
        key = (meta["scenario"], meta["attack"], meta["strategy"], meta["seed"])
        assert key not in rings, f"two records for {key}"
        rings[key] = (meta["cycles"], record.samples)
    return rings


def _run_sequential(directory, telemetry=None):
    keys, tasks = _golden_tasks()
    results = [
        run_simulation(config, strategy, telemetry=telemetry, recorder=_recorder(directory))
        for config, strategy in tasks
    ]
    return dict(zip(keys, results)), _rings(directory)


@pytest.fixture(scope="module")
def sequential(tmp_path_factory):
    """Every golden run sequentially with the recorder on: results, rings."""
    return _run_sequential(tmp_path_factory.mktemp("sequential-flight"))


class TestTapGoldenEquivalence:
    @pytest.mark.parametrize("key", [key for key, _, _ in golden_configs()])
    def test_tapped_run_matches_golden(self, key, golden_runs, sequential):
        results, _ = sequential
        assert results[key].to_dict() == golden_runs[key], (
            f"the flight recorder changed the result of {key}"
        )

    @pytest.mark.parametrize("batch_size", [8, 64])
    def test_tapped_batched_runs_match_goldens(
        self, batch_size, golden_runs, sequential, tmp_path, kernel_tiers
    ):
        keys, tasks = _golden_tasks()
        results = run_batched(
            tasks, batch_size=batch_size, recorder=_recorder(tmp_path)
        )
        for key, result in zip(keys, results):
            assert result.to_dict() == golden_runs[key], (
                f"recorded batch (batch_size={batch_size}, {kernel_tiers} tiers) "
                f"diverged from golden for {key}"
            )
        _, rings = sequential
        assert len(rings) == len(keys)
        assert _rings(tmp_path) == rings, (
            f"batch_size={batch_size} ({kernel_tiers} tiers) recorded other "
            f"flight rings than the sequential runs"
        )


class TestFlightRecordsMatchWithTelemetry:
    def test_rings_match_across_paths_with_the_probe_on(
        self, golden_runs, sequential, tmp_path
    ):
        # The probe times the record stage, capture included; neither
        # the timing nor the capture may change a result or a sample.
        results, rings = _run_sequential(
            tmp_path / "sequential", telemetry=Telemetry(TelemetryConfig())
        )
        assert {key: result.to_dict() for key, result in results.items()} == golden_runs
        assert rings == sequential[1]
        keys, tasks = _golden_tasks()
        batched = run_batched(
            tasks,
            batch_size=8,
            telemetry=Telemetry(TelemetryConfig()),
            recorder=_recorder(tmp_path / "batched"),
        )
        assert [result.to_dict() for result in batched] == [golden_runs[key] for key in keys]
        assert _rings(tmp_path / "batched") == rings
