"""Integration tests for the budgeted search driver.

Pins the subsystem's contracts: bit-identical search trajectories across
sequential, process-pool and lockstep-batched evaluation; memoization
(no duplicate simulation of repeated proposals); resume from the run
cache reproducing the uninterrupted run; and the acceptance benchmark — on a
pinned seeded case every adaptive optimizer finds a hazard-inducing
attack point in fewer simulator evaluations than the exhaustive grid.
"""

import pytest

from repro.core.attack_types import AttackType
from repro.search.driver import SearchConfig, SearchDriver, point_seed
from repro.search.objectives import HazardObjective
from repro.search.optimizers import Optimizer, make_optimizer
from repro.search.space import attack_search_space
from repro.service.cache import RunCache

PINNED_SEED = 2022


def _space(max_steps=1500):
    return attack_search_space(
        scenario="S1", attack_types=(AttackType.DECELERATION,), max_steps=max_steps
    )


def _factory(name, generation_size=4, **kwargs):
    return lambda space: make_optimizer(
        name, space, seed=PINNED_SEED, generation_size=generation_size, **kwargs
    )


def _signature(result):
    """Everything that must be identical across evaluation modes."""
    return (
        [(e.index, e.generation, e.point, e.score) for e in result.evaluations],
        [(g.points, g.scores, g.memo_hits) for g in result.trail],
        None if result.best is None else (result.best.point, result.best.score),
        result.first_hazard_evaluation,
    )


class TestExecutionModeEquivalence:
    def test_sequential_workers_and_batched_agree(self):
        signatures = {}
        for label, extra in (
            ("sequential", {}),
            ("workers", {"workers": 4}),
            ("batched", {"batch_size": 8}),
        ):
            config = SearchConfig(budget=8, master_seed=PINNED_SEED, **extra)
            result = SearchDriver(
                _space(max_steps=1200), HazardObjective(), _factory("random"), config
            ).run()
            signatures[label] = _signature(result)
        assert signatures["sequential"] == signatures["workers"]
        assert signatures["sequential"] == signatures["batched"]

    def test_point_seeds_are_order_independent(self):
        space = _space()
        point = space.quantize((0.3, 0.6, 0.9))
        key = space.key(point)
        assert point_seed(7, key, 0) == point_seed(7, key, 0)
        assert point_seed(7, key, 0) != point_seed(7, key, 1)
        assert point_seed(7, key, 0) != point_seed(8, key, 0)


class _RepeatOptimizer(Optimizer):
    """Asks the same three points every generation (memo stress)."""

    name = "repeat"

    def ask(self):
        return [
            self.space.quantize((0.2, 0.9, 0.9)),
            self.space.quantize((0.5, 0.9, 0.9)),
            self.space.quantize((0.2, 0.9, 0.9)),  # duplicate inside the generation
        ]

    def tell(self, told):
        pass


class TestMemoization:
    def test_repeated_points_are_never_resimulated(self):
        config = SearchConfig(
            budget=10, master_seed=PINNED_SEED, max_stalled_generations=2
        )
        result = SearchDriver(
            _space(max_steps=1200),
            HazardObjective(),
            lambda space: _RepeatOptimizer(space),
            config,
        ).run()
        # Two unique points exist; only those were ever simulated.
        assert result.evaluations_used == 2
        assert result.simulations_run == 2
        # The first generation evaluated both fresh; later generations
        # were pure memo hits until the stall guard stopped the loop.
        assert result.trail[0].memo_hits == [False, False, True]
        for record in result.trail[1:]:
            assert record.memo_hits == [True, True, True]

    def test_repetitions_multiply_simulations_not_evaluations(self):
        config = SearchConfig(
            budget=2, repetitions=3, master_seed=PINNED_SEED,
            max_stalled_generations=1,
        )
        result = SearchDriver(
            _space(max_steps=800),
            HazardObjective(),
            lambda space: _RepeatOptimizer(space),
            config,
        ).run()
        assert result.evaluations_used == 2
        assert result.simulations_run == 6
        for evaluation in result.evaluations:
            assert len(evaluation.repetitions) == 3
            seeds = [outcome.seed for outcome in evaluation.repetitions]
            assert len(set(seeds)) == 3


def _cache(tmp_path):
    return RunCache(str(tmp_path / "cache"), code_epoch="search-resume-test")


class TestCacheResume:
    def test_resume_reproduces_the_uninterrupted_run(self, tmp_path):
        objective = HazardObjective()

        uninterrupted = SearchDriver(
            _space(max_steps=1200), objective, _factory("cem"),
            SearchConfig(budget=10, master_seed=PINNED_SEED),
        ).run()

        # An interrupted run: half the budget, storing every simulation.
        interrupted = SearchDriver(
            _space(max_steps=1200), objective, _factory("cem"),
            SearchConfig(budget=5, master_seed=PINNED_SEED),
            run_cache=_cache(tmp_path),
        ).run()
        assert interrupted.evaluations_used == 5

        resumed = SearchDriver(
            _space(max_steps=1200), objective, _factory("cem"),
            SearchConfig(budget=10, master_seed=PINNED_SEED),
            run_cache=_cache(tmp_path),
        ).run()

        assert _signature(resumed) == _signature(uninterrupted)
        # The resumed run only paid for what the cache did not hold.
        assert resumed.simulations_run == (
            uninterrupted.simulations_run - interrupted.simulations_run
        )

    def _assert_shares_nothing(self, tmp_path, space, master_seed):
        """A search that differs from the cached one hits no cache entry
        and equals a cold run."""
        cache = _cache(tmp_path)
        driver = SearchDriver(
            space, HazardObjective(), _factory("random"),
            SearchConfig(budget=2, master_seed=master_seed), run_cache=cache,
        )
        warm = driver.run()
        assert cache.stats.hits == 0
        cold = SearchDriver(
            space, HazardObjective(), _factory("random"),
            SearchConfig(budget=2, master_seed=master_seed),
        ).run()
        assert _signature(warm) == _signature(cold)
        assert warm.simulations_run == cold.simulations_run

    def _fill(self, tmp_path):
        SearchDriver(
            _space(max_steps=800), HazardObjective(), _factory("random"),
            SearchConfig(budget=2, master_seed=PINNED_SEED), run_cache=_cache(tmp_path),
        ).run()

    def test_another_seed_shares_no_cache_entry(self, tmp_path):
        self._fill(tmp_path)
        self._assert_shares_nothing(tmp_path, _space(max_steps=800), PINNED_SEED + 1)

    def test_a_differently_shaped_space_shares_no_cache_entry(self, tmp_path):
        # Same space name family, different decode mapping: the grid keys
        # decode to different tasks, so no cached result may serve them.
        self._fill(tmp_path)
        for other in (
            _space(max_steps=1000),  # different simulation horizon
            attack_search_space(     # different parameter range
                scenario="S1", attack_types=(AttackType.DECELERATION,),
                max_steps=800, start_range=(2.0, 10.0),
            ),
        ):
            self._assert_shares_nothing(tmp_path, other, PINNED_SEED)


class TestStrategicBeatsExhaustive:
    """The acceptance benchmark: pinned case S1 + Deceleration."""

    @pytest.fixture(scope="class")
    def comparison(self):
        results = {}
        for name in ("grid", "random", "hill-climb", "cem"):
            kwargs = {"steps": 6} if name == "grid" else {}
            config = SearchConfig(
                budget=40, master_seed=PINNED_SEED, batch_size=8, stop_on_hazard=True
            )
            results[name] = SearchDriver(
                _space(max_steps=2500), HazardObjective(),
                _factory(name, generation_size=6, **kwargs), config,
            ).run()
        return results

    def test_every_optimizer_beats_the_grid(self, comparison):
        grid_evals = comparison["grid"].first_hazard_evaluation
        assert grid_evals is not None
        for name in ("random", "hill-climb", "cem"):
            found = comparison[name].first_hazard_evaluation
            assert found is not None, f"{name} found no hazard in budget"
            assert found < grid_evals, (
                f"{name} needed {found} evaluations, grid needed {grid_evals}"
            )

    def test_pinned_case_is_reproducible(self, comparison):
        rerun = SearchDriver(
            _space(max_steps=2500), HazardObjective(),
            _factory("cem", generation_size=6),
            SearchConfig(budget=40, master_seed=PINNED_SEED, batch_size=8,
                         stop_on_hazard=True),
        ).run()
        assert _signature(rerun) == _signature(comparison["cem"])

    def test_best_point_actually_induces_the_hazard(self, comparison):
        from repro.injection.engine import run_simulation
        from repro.search.space import with_safety_margin

        best = comparison["cem"].best
        assert best is not None and best.hazard_found
        space = _space(max_steps=2500)
        seed = best.repetitions[0].seed
        config, strategy = with_safety_margin(space.decode(best.point, seed))
        replayed = run_simulation(config, strategy)
        assert replayed.hazard_occurred
        assert replayed.hazards and best.repetitions[0].hazard
