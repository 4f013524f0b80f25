"""Bit-for-bit equivalence of lockstep batched execution.

The batch executor (:mod:`repro.kernel.batch`) interleaves many runs
through the kernel stage columns and replaces the per-run CAN
encode/decode round trips with vectorised codec passes.  These tests pin
the hard guarantee that makes that legal: batched results are **equal**
to sequential results —

* every golden run (all catalog scenarios attack-free plus one attacked
  S1 run per attack type) replays identically through ``batch_size`` 1,
  8, 64 and 256 at the production tier threshold, and through 1, 8 and
  64 with the dense tier forced on (from 64 up the whole golden set
  rides in one batch) — covering the scalar tier and the dense tier
  (CAN codec plus SoA columns) at every distinct batching;
* the production threshold picks the tier documented in
  :mod:`repro.kernel.batch`, and a batch whose dense row count crosses
  the threshold both ways mid-run stays identical;
* a transformer attached mid-run, inside a dense cycle, hands its row
  to the scalar stages without changing a result;
* a sampled-family campaign produces identical results batched,
  sequential, and batched-inside-parallel-workers;
* the lockstep machinery itself (retirement, refill, progress, strategy
  isolation) behaves as documented.
"""

import os
import sys

import numpy as np
import pytest

from repro.can.honda import ADDR, HONDA_DBC
from repro.core.attack_types import AttackType
from repro.core.can_tamper import tamper_signal
from repro.core.strategies import strategy_by_name
from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.engine import Simulation, SimulationConfig, run_simulation
from repro.kernel import BatchRunner, StepContext, batch, run_batched
from repro.kernel.batch import BatchState
from repro.scenarios import ScenarioSampler

_GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "golden"
)
sys.path.insert(0, _GOLDEN_DIR)

from generate_goldens import GOLDEN_PATH, golden_configs  # noqa: E402


@pytest.fixture(scope="module")
def golden_runs():
    import json

    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["runs"]


def _golden_tasks():
    tasks = []
    keys = []
    for key, config, strategy_name in golden_configs():
        strategy = strategy_by_name(strategy_name) if strategy_name else None
        tasks.append((config, strategy))
        keys.append(key)
    return keys, tasks


class TestGoldenBatchEquivalence:
    # All 21 goldens fit one batch from width 64 up, so forcing the tiers
    # at 256 would replay the 64-wide batch again.
    @pytest.mark.parametrize(
        "kernel_tiers, batch_size",
        [("production", width) for width in (1, 8, 64, 256)]
        + [("forced", width) for width in (1, 8, 64)],
        indirect=["kernel_tiers"],
    )
    def test_all_goldens_replay_through_batch_runner(
        self, batch_size, golden_runs, kernel_tiers
    ):
        keys, tasks = _golden_tasks()
        results = run_batched(tasks, batch_size=batch_size)
        assert len(results) == len(keys)
        for key, result in zip(keys, results):
            assert result.to_dict() == golden_runs[key], (
                f"batched (batch_size={batch_size}, {kernel_tiers} tiers) output "
                f"diverged from golden for {key}"
            )


class TestTierThresholds:
    def _column_calls(self, monkeypatch, width):
        """Calls of two dense columns and of the CAN codec's encode over
        ``width`` 50-step runs."""
        calls = {"update_long_columns": 0, "step_ego_columns": 0, "encode": 0}

        def counted(name, function):
            def counting(*args):
                calls[name] += 1
                return function(*args)

            return counting

        for name in ("update_long_columns", "step_ego_columns"):
            monkeypatch.setattr(batch, name, counted(name, getattr(batch, name)))
        codec = batch.BatchMessageCodec
        monkeypatch.setattr(codec, "encode", counted("encode", codec.encode))
        tasks = [
            (SimulationConfig(scenario="S1", initial_distance=70.0, seed=i, max_steps=50), None)
            for i in range(width)
        ]
        run_batched(tasks, batch_size=width)
        return calls

    def test_paper_width_batch_stays_off_the_dense_columns(self, monkeypatch):
        # 16 rows (the default width, and the paper campaign's) are below
        # the dense break-even: neither the SoA columns nor the codec may
        # run at all.
        assert self._column_calls(monkeypatch, 16) == {
            "update_long_columns": 0,
            "step_ego_columns": 0,
            "encode": 0,
        }

    def test_wide_uniform_batch_runs_the_dense_columns_every_cycle(self, monkeypatch):
        # Equal-length attack-free rows stay dense until they retire
        # together, so each column runs once per cycle, and the codec
        # encodes the four frames of a cycle in four passes.
        assert self._column_calls(monkeypatch, 48) == {
            "update_long_columns": 50,
            "step_ego_columns": 50,
            "encode": 200,
        }

    def test_dense_tier_switches_off_and_back_on_through_refills(self, monkeypatch):
        # Dense threshold 4 in a 6-wide batch.  The simulated human takes
        # over the three Steering-Left rows at ~4.8 s, so they demote and
        # the dense count falls to 3: the dense columns stop, follower rings
        # are handed to the run objects and scalar detects advance the
        # latches.  At ~7.3 s the tailgating Steering-Left row crashes
        # and retires, and its refill takes the count back to 4: rings
        # re-seeded, detector mirrors re-synced, stale physics gathered.
        # The tailgating row under Deceleration rides dense through both
        # switches until its follower rear-ends it (~10.3 s), so its
        # result depends on the ring hand-off.
        monkeypatch.setattr(batch, "DENSE_MIN_ACTIVE", 4)
        specs = [
            ("S1", 50.0, AttackType.STEERING_LEFT, 2000),
            ("S1", 70.0, AttackType.STEERING_LEFT, 2000),
            ("tailgating-follower", None, AttackType.STEERING_LEFT, 2000),
            ("tailgating-follower", None, AttackType.DECELERATION, 2000),
            ("S2", 70.0, None, 1200),
            ("S1", 70.0, AttackType.ACCELERATION_STEERING, 2000),
            ("S1", 50.0, None, 1000),
            ("S3", 70.0, None, 600),
            ("S4", 70.0, None, 400),
            ("S2", 50.0, None, 300),
        ]

        def tasks():
            return [
                (
                    SimulationConfig(
                        scenario=scenario,
                        initial_distance=distance,
                        seed=3,
                        attack_type=attack,
                        max_steps=steps,
                    ),
                    strategy_by_name("Context-Aware") if attack else None,
                )
                for scenario, distance, attack, steps in specs
            ]

        # A follower reaches the result only through a rear-end collision,
        # so every run's final follower kinematics are compared with the
        # sequential run's too: a ring hand-off missed in either direction
        # shows there.
        followers = []
        original_finalize = Simulation.finalize

        def recording_finalize(sim, *args, **kwargs):
            follower = sim.world.follower
            if follower is not None:
                config = sim.config
                key = (config.scenario, config.initial_distance, config.attack_type)
                state = follower.state
                followers[-1][key] = (state.s, state.speed, state.accel)
            return original_finalize(sim, *args, **kwargs)

        monkeypatch.setattr(Simulation, "finalize", recording_finalize)
        followers.append({})
        expected = [run_simulation(config, strategy) for config, strategy in tasks()]
        followers.append({})
        runner = BatchRunner(batch_size=6)
        dense_rows = []
        original_cycle = runner._cycle
        original_detect = runner._detect_dense

        def counting_cycle(active, stage_hists=None):
            original_cycle(active, stage_hists)
            dense_rows.append(runner._n_dense)

        def checked_detect(active, n_dense):
            # A stale mirror heals itself by over-dispatching, so results
            # alone would not show a missed re-sync: when the dense detect
            # starts, re-syncing every dense row must change nothing.
            state = runner.state
            mirrors = batch._DETECT_BOOL_COLUMNS
            before = [getattr(state, name)[:n_dense].copy() for name in mirrors]
            for row in range(n_dense):
                state.sync_detect_row(row, active[row])
            for name, mirror in zip(mirrors, before):
                assert np.array_equal(getattr(state, name)[:n_dense], mirror), name
            original_detect(active, n_dense)

        runner._cycle = counting_cycle
        runner._detect_dense = checked_detect
        assert runner.run_tasks(tasks()) == expected
        assert followers[0] and followers[1] == followers[0]

        dense = [rows >= 4 for rows in dense_rows]
        switches = list(zip(dense, dense[1:]))
        assert (True, False) in switches, "the dense row count never fell below 4"
        assert (False, True) in switches, "the dense row count never climbed back to 4"


class TestSampledFamilyCampaignEquivalence:
    def _config(self, runs=24):
        sampler = ScenarioSampler(master_seed=99)
        return CampaignConfig(
            strategy_name="Context-Aware",
            scenarios=tuple(sampler.take(runs)),
            initial_distances=(None,),
            attack_types=(AttackType.DECELERATION,),
            repetitions=1,
            master_seed=99,
            max_steps=600,
        )

    def test_batched_equals_sequential_on_sampled_families(self):
        config = self._config(24)
        sequential = Campaign(config).run()
        batched = Campaign(config).run(batch_size=8)
        assert batched == sequential

    def test_batched_inside_parallel_workers_equals_sequential(self, kernel_tiers):
        # Forked workers inherit the patched threshold, so in the forced
        # case the 4-row batches run the dense tier.
        config = self._config(16)
        sequential = Campaign(config).run()
        combined = Campaign(config).run(workers=2, batch_size=4)
        assert combined == sequential


class TestBatchRunnerMechanics:
    def _tasks(self, n, max_steps=400):
        return [
            (SimulationConfig(scenario="S1", initial_distance=70.0, seed=i, max_steps=max_steps), None)
            for i in range(n)
        ]

    def test_results_follow_task_order_with_mixed_lengths(self):
        # Attacked runs retire early (collision), attack-free run long:
        # results must still come back in task order.
        tasks = []
        for i, attack in enumerate(
            (None, AttackType.DECELERATION, None, AttackType.STEERING_LEFT)
        ):
            config = SimulationConfig(
                scenario="S1",
                initial_distance=70.0,
                seed=2022 + i,
                attack_type=attack,
                max_steps=1500,
            )
            strategy = strategy_by_name("Context-Aware") if attack else None
            tasks.append((config, strategy))
        expected = [
            run_simulation(c, strategy_by_name("Context-Aware") if c.attack_type else None)
            for c, _ in tasks
        ]
        results = run_batched(tasks, batch_size=2)
        assert results == expected

    def test_progress_reports_every_completion(self):
        calls = []
        run_batched(
            self._tasks(5, max_steps=120),
            batch_size=2,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(1, 5), (2, 5), (3, 5), (4, 5), (5, 5)]

    def test_shared_strategy_instance_is_rejected(self):
        strategy = strategy_by_name("Context-Aware")
        config = SimulationConfig(
            scenario="S1",
            initial_distance=70.0,
            seed=1,
            attack_type=AttackType.DECELERATION,
            max_steps=200,
        )
        with pytest.raises(ValueError, match="one strategy instance per"):
            run_batched([(config, strategy), (config, strategy)], batch_size=2)

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            BatchRunner(batch_size=0)

    def test_gather_row_marks_leadless_rows_nan(self):
        # The detect kinematics columns follow the context: a run without
        # a tracked lead reads a NaN gap and speed, a run with one reads
        # its values.
        state = BatchState(2)
        ctx = StepContext()
        ctx.end_time, ctx.ego_s, ctx.ego_d, ctx.ego_speed = 1.0, 10.0, 0.25, 20.0
        state.gather_row(0, ctx)
        ctx.lead, ctx.lead_gap, ctx.lead_speed, ctx.lead_d = object(), 40.0, 15.0, 0.5
        state.gather_row(1, ctx)
        assert np.isnan(state.lead_gap[0]) and np.isnan(state.lead_speed[0])
        assert not state.has_lead[0]
        assert (state.lead_gap[1], state.lead_speed[1], state.lead_d[1]) == (40.0, 15.0, 0.5)
        assert state.has_lead[1]
        for column, value in (("time", 1.0), ("ego_s", 10.0), ("ego_d", 0.25), ("ego_speed", 20.0)):
            assert list(getattr(state, column)) == [value, value], column

    def test_dense_kinematics_columns_equal_gather_row(self, monkeypatch):
        # With the dense tier forced on, the actuate column writes the
        # dense rows' detect kinematics from its own columns; at every
        # detect they must equal what gather_row writes from the run
        # contexts.
        monkeypatch.setattr(batch, "DENSE_MIN_ACTIVE", 1)
        columns = (
            "time", "ego_s", "ego_d", "ego_speed", "lead_gap", "lead_speed",
            "left_edge", "right_edge", "lead_d", "has_lead",
        )
        checked = []

        class Checked(BatchRunner):
            def _detect_column(self, active):
                n = self._n_vec
                expected = BatchState(len(active))
                for row in range(n):
                    expected.gather_row(row, active[row].ctx)
                for name in columns:
                    np.testing.assert_array_equal(
                        getattr(self.state, name)[:n], getattr(expected, name)[:n], err_msg=name
                    )
                checked.append(n)
                super()._detect_column(active)

        scenarios = ("S1", "open-road-cruise", "cut-out-reveal", "tailgating-follower")
        tasks = [
            (SimulationConfig(scenario=name, seed=i, max_steps=150), None)
            for i, name in enumerate(scenarios)
        ]
        expected = [run_simulation(config) for config, _ in tasks]
        assert Checked(batch_size=4).run_tasks(tasks) == expected
        assert sum(checked) > 0

    def test_transformer_on_bus_falls_back_to_scalar_stages(self, kernel_tiers):
        # A man-in-the-middle transformer makes the codec fast path
        # unsound; the runner must detect it and still produce the exact
        # sequential result through the scalar stages.  Four rows run
        # the scalar tier at the production threshold; forced, the
        # transformer keeps every row out of the dense prefix from its
        # admission.
        config = SimulationConfig(scenario="S1", initial_distance=70.0, seed=5, max_steps=300)
        expected = run_simulation(config)

        runner = BatchRunner(batch_size=4)
        tampered = {}
        original_init = Simulation.__init__

        def patched_init(self, cfg, strategy=None):
            original_init(self, cfg, strategy)
            # Register a pass-through transformer: frames are unchanged,
            # but the bus can no longer be assumed codec-transparent.
            self.world.can_bus.add_transformer(lambda frame: None)
            tampered["done"] = True

        Simulation.__init__ = patched_init
        try:
            results = runner.run_tasks([(config, None)] * 4)
        finally:
            Simulation.__init__ = original_init
        assert tampered["done"]
        assert all(result == expected for result in results)

    @pytest.mark.parametrize("width", [4, 8])
    def test_transformer_attached_by_an_output_hook_mid_run(
        self, width, kernel_tiers, monkeypatch
    ):
        # At t >= 1 s an output hook registers a transformer that rewrites
        # every ACC_CONTROL frame into a hard brake.  The hook runs inside
        # the inject stage, so with the dense tier forced the inject
        # column finds the transformer within the very cycle it encodes
        # the row's commands: it must send that row scalar, and the drive
        # column must decode the rewritten frames from the bus.
        def brake(frame):
            if frame.address == ADDR["ACC_CONTROL"]:
                return tamper_signal(
                    frame, HONDA_DBC, {"ACCEL_COMMAND": 0.0, "BRAKE_COMMAND": 3.0}
                )
            return None

        original_init = Simulation.__init__

        def patched_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            bus = self.world.can_bus

            def attach_once(time, command, car_state):
                if time >= 1.0 and not bus.has_transformers:
                    bus.add_transformer(brake)
                return command

            self.openpilot.add_output_hook(attach_once)

        tasks = [
            (
                SimulationConfig(
                    scenario="S1",
                    initial_distance=70.0,
                    seed=i,
                    max_steps=300,
                    record_trajectory=True,
                ),
                None,
            )
            for i in range(width)
        ]
        untampered = run_simulation(tasks[0][0])
        monkeypatch.setattr(Simulation, "__init__", patched_init)
        expected = [run_simulation(config) for config, _ in tasks]
        assert expected[0] != untampered, "the transformer never changed a run"
        assert run_batched(tasks, batch_size=width) == expected

    def test_drained_batch_below_threshold_stays_identical(self):
        # A batch that never fills its eight slots, far below the dense
        # threshold: every column runs each row's scalar stage.
        n = 7
        tasks = self._tasks(n, max_steps=300)
        expected = [run_simulation(c) for c, _ in tasks]
        assert run_batched(tasks, batch_size=8) == expected
