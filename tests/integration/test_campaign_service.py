"""Integration tests for the asyncio campaign service.

The service front-end must change *scheduling*, never *results*: a job
executed through the queue is bit-identical to a direct run, concurrent
jobs genuinely interleave (observable through the service-wide event
sequence), partial results stream per chunk, a shared cache makes warm
jobs free, search jobs stream per-generation progress, and a failing
job reports ``failed`` without poisoning its neighbours.

pytest-asyncio is deliberately not a dependency: each test drives its
coroutine with ``asyncio.run`` from a plain sync function.
"""

import asyncio

import pytest

from repro.core.attack_types import AttackType
from repro.injection.campaign import Campaign, CampaignConfig
from repro.search.driver import SearchConfig, SearchDriver
from repro.search.objectives import HazardObjective
from repro.search.optimizers import make_optimizer
from repro.search.space import attack_search_space
from repro.service import (
    CampaignJobSpec,
    CampaignService,
    JobStatus,
    RunCache,
    SearchJobSpec,
)
from repro.telemetry import Telemetry, TelemetryConfig

EPOCH = "service-test"


def _grid(scenarios=("S1",), repetitions=2):
    return CampaignConfig(
        strategy_name="Context-Aware",
        scenarios=scenarios,
        initial_distances=(50.0, 70.0),
        attack_types=(AttackType.DECELERATION,),
        repetitions=repetitions,
        max_steps=1200,
    )


async def _collect(service, job):
    events = []
    async for event in service.events(job):
        events.append(event)
    return events


class TestCampaignJobs:
    def test_job_results_match_direct_run_and_stream_progress(self):
        async def scenario():
            service = CampaignService()
            await service.start()
            job = await service.submit(CampaignJobSpec(config=_grid(), chunk_runs=2))
            events = await _collect(service, job)
            results = await service.result(job)
            await service.stop()
            return job, events, results

        job, events, results = asyncio.run(scenario())
        assert job.status is JobStatus.COMPLETED
        assert results == Campaign(_grid()).run()
        assert job.partial_results == results
        kinds = [event.kind for event in events]
        assert kinds[0] == "queued" and kinds[1] == "started" and kinds[-1] == "completed"
        progress = [event.payload for event in events if event.kind == "progress"]
        assert [p["completed"] for p in progress] == [2, 4]
        assert all(p["total"] == _grid().total_runs for p in progress)

    def test_concurrent_jobs_interleave(self):
        """Two jobs on a concurrency-2 service must overlap in time.

        The service-wide event sequence makes this checkable: if job B's
        first progress event lands before job A's last, the seq ranges
        interleave instead of forming two disjoint blocks.
        """

        async def scenario():
            service = CampaignService(concurrency=2)
            await service.start()
            job_a = await service.submit(CampaignJobSpec(config=_grid(), chunk_runs=1))
            job_b = await service.submit(
                CampaignJobSpec(config=_grid(scenarios=("S2",)), chunk_runs=1)
            )
            events_a, events_b = await asyncio.gather(
                _collect(service, job_a), _collect(service, job_b)
            )
            results = (await service.result(job_a), await service.result(job_b))
            await service.stop()
            return events_a, events_b, results

        events_a, events_b, (results_a, results_b) = asyncio.run(scenario())
        assert results_a == Campaign(_grid()).run()
        assert results_b == Campaign(_grid(scenarios=("S2",))).run()
        span_a = (events_a[0].seq, events_a[-1].seq)
        span_b = (events_b[0].seq, events_b[-1].seq)
        assert span_a[0] < span_b[1] and span_b[0] < span_a[1], (
            f"jobs serialized: seq spans {span_a} and {span_b} do not overlap"
        )

    def test_serialized_queue_runs_jobs_in_submission_order(self):
        async def scenario():
            service = CampaignService(concurrency=1)
            await service.start()
            first = await service.submit(CampaignJobSpec(config=_grid()))
            second = await service.submit(CampaignJobSpec(config=_grid()))
            await service.result(first)
            await service.result(second)
            await service.stop()
            return first, second

        first, second = asyncio.run(scenario())
        assert first.status is second.status is JobStatus.COMPLETED
        assert first.result == second.result

    def test_failed_job_does_not_poison_the_queue(self):
        def exploding_factory():
            raise ValueError("strategy factory is broken")

        async def scenario():
            service = CampaignService()
            await service.start()
            bad = await service.submit(
                CampaignJobSpec(config=_grid(), strategy_factory=exploding_factory)
            )
            good = await service.submit(CampaignJobSpec(config=_grid()))
            bad_events = await _collect(service, bad)
            results = await service.result(good)
            with pytest.raises(RuntimeError):
                await service.result(bad)
            await service.stop()
            return bad, bad_events, results

        bad, bad_events, results = asyncio.run(scenario())
        assert bad.status is JobStatus.FAILED and bad.error
        assert bad_events[-1].kind == "failed"
        assert results == Campaign(_grid()).run()


class TestCachedJobs:
    def test_warm_job_is_served_from_the_cache(self, tmp_path):
        telemetry = Telemetry(TelemetryConfig())

        async def scenario():
            cache = RunCache(str(tmp_path / "cache"), code_epoch=EPOCH)
            service = CampaignService(cache=cache, telemetry=telemetry)
            await service.start()
            cold = await service.submit(CampaignJobSpec(config=_grid()))
            cold_results = await service.result(cold)
            warm = await service.submit(CampaignJobSpec(config=_grid()))
            warm_results = await service.result(warm)
            await service.stop()
            return cache, cold_results, warm_results

        cache, cold_results, warm_results = asyncio.run(scenario())
        assert cold_results == warm_results == Campaign(_grid()).run()
        total = _grid().total_runs
        assert cache.stats.misses == total      # the cold job only
        assert cache.stats.hits == total        # the warm job paid nothing
        counters = telemetry.snapshot()["counters"]
        assert counters["cache.hits"] == total
        assert counters["service.runs_served"] == 2 * total
        assert counters["service.jobs_completed"] == 2


class TestSearchJobs:
    def _spec(self):
        return SearchJobSpec(
            space=attack_search_space(
                scenario="S1",
                attack_types=(AttackType.DECELERATION,),
                max_steps=1200,
            ),
            objective=HazardObjective(),
            optimizer_factory=lambda space: make_optimizer(
                "random", space, seed=2022, generation_size=4
            ),
            config=SearchConfig(budget=8, master_seed=2022),
        )

    def test_search_job_streams_generations_and_matches_direct_run(self, tmp_path):
        async def scenario():
            cache = RunCache(str(tmp_path / "cache"), code_epoch=EPOCH)
            service = CampaignService(cache=cache)
            await service.start()
            job = await service.submit(self._spec())
            events = await _collect(service, job)
            result = await service.result(job)
            await service.stop()
            return cache, events, result

        cache, events, result = asyncio.run(scenario())
        spec = self._spec()
        direct = SearchDriver(
            spec.space, spec.objective, spec.optimizer_factory, spec.config
        ).run()
        assert [(e.index, e.point, e.score) for e in result.evaluations] == [
            (e.index, e.point, e.score) for e in direct.evaluations
        ]
        progress = [event.payload for event in events if event.kind == "progress"]
        assert len(progress) == len(result.trail)   # one event per generation
        assert progress[-1]["evaluations"] == result.evaluations_used
        assert cache.stats.misses == result.simulations_run
