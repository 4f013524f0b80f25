"""Cache-aware campaign and search execution must be invisible in results.

The acceptance property of the run cache is *bit-identity*: a cached
campaign (cold or warm, sequential, pooled or batched) returns exactly
the ``RunResult`` sequence of an uncached run — the cache only changes
what is paid.  A warm pass must pay zero simulations, supervised runs
must report their cache hits, an interrupted cached run must resume
from the cache paying only for what it had not finished, and a search
driver sharing the cache must follow the identical trajectory.
"""

import pytest

from repro.core.attack_types import AttackType
from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.executor import run_simulations
from repro.resilience import SupervisionPolicy, run_supervised_simulations
from repro.search.driver import SearchConfig, SearchDriver
from repro.search.objectives import HazardObjective
from repro.search.optimizers import make_optimizer
from repro.search.space import attack_search_space
from repro.service.cache import RunCache

EPOCH = "campaign-cache-test"

GRID = CampaignConfig(
    strategy_name="Context-Aware",
    scenarios=("S1", "S2"),
    initial_distances=(50.0, 70.0),
    attack_types=(AttackType.ACCELERATION, AttackType.DECELERATION),
    repetitions=1,
    max_steps=1200,
)


def _cache(tmp_path, name="cache"):
    return RunCache(str(tmp_path / name), code_epoch=EPOCH)


class TestBitIdentity:
    def test_cached_equals_uncached_across_execution_modes(self, tmp_path):
        baseline = Campaign(GRID).run()
        for label, kwargs in (
            ("sequential", {}),
            ("workers", {"workers": 4}),
            ("batched", {"batch_size": 8}),
        ):
            cold = Campaign(GRID).run(cache=_cache(tmp_path, f"{label}-cold"), **kwargs)
            assert cold == baseline, f"cold {label} diverged"
        # Warm passes against one shared cache, again across all modes.
        shared = _cache(tmp_path, "shared")
        Campaign(GRID).run(cache=shared)
        for label, kwargs in (
            ("sequential", {}),
            ("workers", {"workers": 4}),
            ("batched", {"batch_size": 8}),
        ):
            warm = Campaign(GRID).run(cache=shared, **kwargs)
            assert warm == baseline, f"warm {label} diverged"

    def test_warm_pass_pays_zero_simulations(self, tmp_path):
        cache = _cache(tmp_path)
        Campaign(GRID).run(cache=cache)
        assert cache.stats.writes == GRID.total_runs
        warm_before = cache.stats.misses
        Campaign(GRID).run(cache=cache)
        assert cache.stats.misses == warm_before            # zero new misses
        assert cache.stats.hits == GRID.total_runs
        assert cache.stats.bypasses == 0

    def test_partial_cache_pays_only_the_difference(self, tmp_path):
        cache = _cache(tmp_path)
        half = CampaignConfig(
            strategy_name="Context-Aware",
            scenarios=("S1",),
            initial_distances=(50.0, 70.0),
            attack_types=(AttackType.ACCELERATION, AttackType.DECELERATION),
            repetitions=1,
            max_steps=1200,
        )
        Campaign(half).run(cache=cache)
        assert len(cache) == half.total_runs
        full = Campaign(GRID).run(cache=cache)
        assert full == Campaign(GRID).run()
        assert cache.stats.hits == half.total_runs          # S1 cells reused
        assert cache.stats.misses == GRID.total_runs        # cold half + first pass

    def test_progress_covers_hits_and_misses(self, tmp_path):
        cache = _cache(tmp_path)
        Campaign(GRID).run(cache=cache)
        calls = []
        Campaign(GRID).run(
            cache=cache, progress=lambda done, total: calls.append((done, total))
        )
        assert calls[-1] == (GRID.total_runs, GRID.total_runs)
        assert [done for done, _ in calls] == sorted(done for done, _ in calls)


class TestSupervisedCache:
    def test_supervised_warm_run_reports_cache_hits(self, tmp_path):
        cache = _cache(tmp_path)
        policy = SupervisionPolicy(max_chunk_attempts=2)
        baseline = Campaign(GRID).run()
        cold = run_supervised_simulations(Campaign(GRID).tasks(), policy=policy, cache=cache)
        assert cold.results == baseline
        assert cold.report.loaded_from_cache == 0
        warm = run_supervised_simulations(Campaign(GRID).tasks(), policy=policy, cache=cache)
        assert warm.results == baseline
        assert warm.report.loaded_from_cache == GRID.total_runs
        assert warm.report.sims_paid == 0
        assert "from cache" in warm.report.summary()


class _Interrupted(Exception):
    """Stand-in for the process dying mid-campaign."""


class TestInterruptedRunResumesFromCache:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_interrupted_cached_run_resumes_bit_identically(self, tmp_path, workers):
        """Runs accepted before the interruption are in the cache, so a
        rerun on the same directory pays only for the rest."""
        baseline = Campaign(GRID).run()
        total = len(baseline)

        def die_after_three(completed, _total):
            if completed >= 3:
                raise _Interrupted()

        with pytest.raises(_Interrupted):
            run_simulations(
                Campaign(GRID).tasks(),
                workers=workers,
                chunk_size=1,
                cache=_cache(tmp_path),
                progress=die_after_three,
            )
        resumed = run_supervised_simulations(Campaign(GRID).tasks(), cache=_cache(tmp_path))
        report = resumed.report
        assert report.loaded_from_cache >= 3
        assert report.sims_paid == total - report.loaded_from_cache
        assert [run.to_dict() for run in resumed.results] == [
            run.to_dict() for run in baseline
        ]


class TestSearchCache:
    def _driver(self, cache=None, **extra):
        config = SearchConfig(budget=8, master_seed=2022, **extra)
        return SearchDriver(
            attack_search_space(
                scenario="S1",
                attack_types=(AttackType.DECELERATION,),
                max_steps=1200,
            ),
            HazardObjective(),
            lambda space: make_optimizer("random", space, seed=2022, generation_size=4),
            config,
            run_cache=cache,
        )

    @staticmethod
    def _signature(result):
        return (
            [(e.index, e.generation, e.point, e.score) for e in result.evaluations],
            None if result.best is None else (result.best.point, result.best.score),
        )

    def test_search_trajectory_identical_with_and_without_cache(self, tmp_path):
        plain = self._driver().run()
        cached = self._driver(cache=_cache(tmp_path)).run()
        assert self._signature(cached) == self._signature(plain)
        assert cached.simulations_run == plain.simulations_run  # cold pays full price

    def test_warm_search_pays_zero_simulations(self, tmp_path):
        cache = _cache(tmp_path)
        cold = self._driver(cache=cache).run()
        assert cold.simulations_run > 0
        warm = self._driver(cache=cache).run()
        assert self._signature(warm) == self._signature(cold)
        assert warm.simulations_run == 0
