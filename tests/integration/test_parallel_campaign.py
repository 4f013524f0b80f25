"""Determinism and plumbing of the parallel campaign executor.

The acceptance property of :mod:`repro.injection.executor` is that a
parallel campaign is indistinguishable from a sequential one: per-cell
seeds are derived from ``(master_seed, cell index)`` alone, so the same
``CampaignConfig`` must yield identical ``RunResult`` sequences whatever
the worker count or chunking.
"""


from repro.core.attack_types import AttackType
from repro.core.strategies import ContextAwareStrategy
from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.engine import SimulationConfig
from repro.injection.executor import run_simulations

REDUCED_GRID = CampaignConfig(
    strategy_name="Context-Aware",
    scenarios=("S1", "S2"),
    initial_distances=(50.0, 70.0),
    attack_types=(AttackType.ACCELERATION, AttackType.STEERING_RIGHT),
    repetitions=1,
    max_steps=1200,
)


class TestParallelDeterminism:
    def test_workers_1_vs_4_identical_results(self):
        sequential = Campaign(REDUCED_GRID).run(workers=1)
        parallel = Campaign(REDUCED_GRID).run(workers=4)
        assert len(sequential) == len(parallel) == REDUCED_GRID.total_runs
        for seq_run, par_run in zip(sequential, parallel):
            assert seq_run.seed == par_run.seed
            assert seq_run == par_run

    def test_chunk_size_does_not_change_results(self):
        small = run_simulations(Campaign(REDUCED_GRID).tasks(), workers=2, chunk_size=1)
        large = run_simulations(Campaign(REDUCED_GRID).tasks(), workers=2, chunk_size=5)
        assert small == large


class TestExecutorPlumbing:
    def test_progress_reaches_total_and_is_monotonic(self):
        calls = []
        Campaign(REDUCED_GRID).run(
            workers=3, progress=lambda done, total: calls.append((done, total))
        )
        assert calls[-1] == (REDUCED_GRID.total_runs, REDUCED_GRID.total_runs)
        assert [done for done, _ in calls] == sorted(done for done, _ in calls)

    def test_empty_campaign(self):
        config = CampaignConfig(scenarios=(), repetitions=1)
        assert Campaign(config).run(workers=4) == []

    def test_unpicklable_strategy_factory_works_with_fork(self):
        """Closures as factories must survive the fork-based pool."""
        campaign = Campaign(
            REDUCED_GRID, strategy_factory=lambda: ContextAwareStrategy(max_duration=8.0)
        )
        assert campaign.run(workers=2) == campaign.run()

    def test_run_simulations_order_and_determinism(self):
        tasks = [
            (
                SimulationConfig(
                    scenario="S1",
                    initial_distance=70.0,
                    seed=seed,
                    attack_type=AttackType.ACCELERATION,
                    max_steps=800,
                ),
                ContextAwareStrategy(),
            )
            for seed in (3, 1, 2)
        ]
        sequential = run_simulations(tasks, workers=1)
        parallel = run_simulations(tasks, workers=3)
        assert [run.seed for run in sequential] == [3, 1, 2]
        assert sequential == parallel

    def test_run_simulations_empty(self):
        assert run_simulations([], workers=4) == []
