"""Integration tests for the campaign runner and the experiment harness."""

import pytest

from repro.core.attack_types import AttackType
from repro.core.strategies import ContextAwareStrategy, NoAttackStrategy
from repro.experiments import ExperimentScale, run_figure7, run_figure8, run_table4, run_table5
from repro.experiments.table4 import TABLE4_STRATEGIES
from repro.injection.campaign import ALL_ATTACK_TYPES, Campaign, CampaignConfig
from repro.injection.executor import resolve_chunk_size
from repro.resilience import SupervisionPolicy
from repro.service import RunCache
from repro.telemetry import Telemetry, TelemetryConfig


SMOKE = ExperimentScale.smoke()


class _PoisonedCellStrategy(ContextAwareStrategy):
    """Context-Aware under its own name, dying on its Deceleration cell
    (module level, so it pickles to pool workers)."""

    name = "Poisoned-Cell"

    def should_activate(self, time, spec, matches):
        if spec.attack_type is AttackType.DECELERATION:
            raise RuntimeError("poisoned cell")
        return super().should_activate(time, spec, matches)


def _summary_bits(result):
    """Table IV rows compared exactly: ``repr`` round-trips every float
    and, unlike ``==``, equates the NaN TTH fields of hazard-free rows."""
    return [repr(summary) for summary in result.summaries]


class TestCampaign:
    def test_grid_enumeration_counts(self):
        config = CampaignConfig(
            scenarios=("S1", "S2"),
            initial_distances=(50.0, 70.0),
            attack_types=(AttackType.ACCELERATION,),
            repetitions=3,
        )
        cells = list(Campaign(config).cells())
        assert len(cells) == config.total_runs == 2 * 2 * 1 * 3

    def test_cell_seeds_unique_and_deterministic(self):
        config = CampaignConfig(repetitions=2, attack_types=(AttackType.ACCELERATION,))
        seeds_a = [cell.seed for cell in Campaign(config).cells()]
        seeds_b = [cell.seed for cell in Campaign(config).cells()]
        assert seeds_a == seeds_b
        assert len(set(seeds_a)) == len(seeds_a)

    def test_run_produces_results_for_every_cell(self):
        config = CampaignConfig(
            strategy_name="Context-Aware",
            scenarios=("S1",),
            initial_distances=(50.0,),
            attack_types=(AttackType.ACCELERATION, AttackType.STEERING_RIGHT),
            repetitions=1,
            max_steps=2500,
        )
        progress = []
        results = Campaign(config).run(progress=lambda done, total: progress.append((done, total)))
        assert len(results) == 2
        assert progress[-1] == (2, 2)
        assert all(result.strategy == "Context-Aware" for result in results)

    def test_attack_free_campaign(self):
        config = CampaignConfig(
            strategy_name="No-Attack",
            scenarios=("S1",),
            initial_distances=(70.0,),
            attack_types=(),
            repetitions=1,
            max_steps=2500,
        )
        results = Campaign(config).run()
        assert len(results) == 1
        assert results[0].attack_type is None


class TestExperimentHarness:
    @pytest.fixture(scope="class")
    def sequential_table4(self):
        return run_table4(SMOKE)

    @pytest.mark.parametrize("dispatch", ["sequential", "parallel-batched-cached"])
    def test_table4_smoke_grid(self, dispatch, sequential_table4, tmp_path):
        result = sequential_table4
        if dispatch != "sequential":
            # The whole table is one dispatch: 25 runs cut into two chunks
            # of 13 and 12, so batches mix strategies (and the attack-free
            # run) without changing a bit of any result.
            result = run_table4(
                SMOKE, workers=2, batch_size=8, cache=RunCache(str(tmp_path / "cache"))
            )
        assert len(result.summaries) == len(TABLE4_STRATEGIES)
        context_aware = result.summary_for("Context-Aware")
        assert context_aware.runs == 6  # 1 scenario x 1 distance x 6 attack types x 1 rep
        assert "Context-Aware" in result.format()
        assert result.runs == sequential_table4.runs
        assert _summary_bits(result) == _summary_bits(sequential_table4)

    def test_table4_quarantine_stays_in_its_strategy_and_resumes(
        self, sequential_table4, tmp_path
    ):
        strategies = (NoAttackStrategy, _PoisonedCellStrategy, ContextAwareStrategy)

        def supervised_table(telemetry=None):
            return run_table4(
                SMOKE,
                strategies=strategies,
                workers=2,
                batch_size=4,
                supervision=SupervisionPolicy(backoff_base=0.01, max_chunk_attempts=2),
                telemetry=telemetry,
                cache=RunCache(str(tmp_path / "cache")),
            )

        telemetry = Telemetry(TelemetryConfig(trace=True))
        result = supervised_table(telemetry)
        # The table is one dispatch cut by the one chunk rule: the
        # poisoned chunk is a share of the whole 13-run table.
        bisected = [
            args["tasks"] for name, _, _, _, args in telemetry.tracer
            if name == "supervisor.bisect"
        ]
        assert max(bisected) == resolve_chunk_size(13, 2, 4) == 7
        poisoned = result.runs[_PoisonedCellStrategy.name]
        assert [run.attack_type for run in poisoned] == [
            attack.value for attack in ALL_ATTACK_TYPES if attack is not AttackType.DECELERATION
        ]
        assert result.summary_for(_PoisonedCellStrategy.name).runs == len(ALL_ATTACK_TYPES) - 1
        for name in (NoAttackStrategy.name, ContextAwareStrategy.name):
            assert result.runs[name] == sequential_table4.runs[name]
            assert repr(result.summary_for(name)) == repr(sequential_table4.summary_for(name))
        # The unregistered poisoned strategy bypasses the cache; the rest
        # of the table is stored there as its chunks are accepted.
        assert len(RunCache(str(tmp_path / "cache"))) == 1 + len(ALL_ATTACK_TYPES)

        resumed = supervised_table()
        assert resumed.runs == result.runs
        assert _summary_bits(resumed) == _summary_bits(result)

    def test_table5_smoke_grid(self):
        result = run_table5(SMOKE)
        assert set(result.without_corruption) == {t.value for t in AttackType}
        assert set(result.with_corruption) == {t.value for t in AttackType}
        text = result.format()
        assert "With Strategic Value Corruption" in text

    def test_figure7_records_trajectory(self):
        result = run_figure7(seeds=[0])
        assert len(result.trajectory) > 100
        assert result.lane_invasions_per_second >= 0.0
        assert "Figure 7" in result.format()
        path = result.cartesian_path(resolution=5.0)
        assert len(path) == len(result.trajectory)

    def test_figure8_small_sweep(self):
        import numpy as np

        result = run_figure8(
            scenario="S1",
            initial_distance=50.0,
            start_times=np.array([5.0, 30.0]),
            durations=np.array([0.5, 2.5]),
            context_aware_seeds=[1],
        )
        assert len(result.random_points()) == 4
        assert len(result.context_aware_points()) >= 1
        assert all(point.hazard for point in result.context_aware_points())
        assert "critical start-time window" in result.format()

    def test_figure8_rerun_on_its_cache_pays_for_nothing(self, tmp_path):
        import numpy as np

        sweep = dict(
            scenario="S1",
            initial_distance=50.0,
            start_times=np.array([5.0, 30.0]),
            durations=np.array([0.5]),
            context_aware_seeds=[1],
        )
        cold = run_figure8(cache=RunCache(str(tmp_path)), **sweep)
        cache = RunCache(str(tmp_path))
        warm = run_figure8(cache=cache, **sweep)
        assert (cache.stats.hits, cache.stats.misses, cache.stats.writes) == (3, 0, 0)
        assert warm.points == cold.points

    def test_search_attack_reduced_comparison(self):
        from repro.experiments import run_search_attack

        result = run_search_attack(
            scenarios=("S1",),
            attack_types=(AttackType.STEERING_RIGHT,),
            methods=("random", "grid"),
            budget=12,
            max_steps=2000,
        )
        assert len(result.rows) == 2
        random_row = result.row_for("S1", "Steering-Right", "random")
        grid_row = result.row_for("S1", "Steering-Right", "grid")
        assert random_row.evaluations_to_first_hazard is not None
        assert grid_row.evaluations_used <= 12
        text = result.format()
        assert "Evals to 1st Hazard" in text
        assert "Steering-Right" in text

    def test_scale_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL_SCALE", "1")
        assert ExperimentScale.from_environment().repetitions == 20
        monkeypatch.delenv("REPRO_FULL_SCALE")
        assert ExperimentScale.from_environment(SMOKE).repetitions == SMOKE.repetitions
