"""Integration tests: the event journal across service, supervisor and cache.

The journal is the service's black box, attached to the telemetry handle
every emitter reports through: every ``JobEvent`` is mirrored
as a ``job.*`` record, chunk dispatches bind the ``job_id → chunk_id``
correlation chain into the supervised back-end, cache traffic lands as
fingerprint-correlated ``cache.*`` records (bypasses carry the *reason*
at warning level), and folding the records back with ``replay_jobs``
reconstructs exactly what a live service observed — the property the
obs-smoke CI gate exercises across a real process kill.

pytest-asyncio is deliberately not a dependency: each test drives its
coroutine with ``asyncio.run`` from a plain sync function.
"""

import asyncio
from collections import Counter

from repro.core.attack_types import AttackType
from repro.injection.campaign import Campaign, CampaignConfig
from repro.obs.journal import EventJournal, job_event_stream, read_journal, replay_jobs
from repro.obs.query import job_summaries
from repro.resilience.chaos import ChaosPolicy, FaultSpec
from repro.resilience.supervisor import SupervisionPolicy, run_supervised_simulations
from repro.service import CampaignJobSpec, CampaignService, RunCache
from repro.telemetry import Telemetry

EPOCH = "obs-journal-test"


def _grid(repetitions=4, max_steps=150):
    return CampaignConfig(
        strategy_name="Context-Aware",
        scenarios=("S1",),
        initial_distances=(60.0,),
        attack_types=(AttackType.DECELERATION,),
        repetitions=repetitions,
        max_steps=max_steps,
    )


async def _run_jobs(service, specs):
    await service.start()
    jobs = [await service.submit(spec) for spec in specs]
    for job in jobs:
        await service.result(job)
    await service.stop()
    return jobs


class TestServiceJournal:
    def test_job_lifecycle_is_mirrored_and_replayable(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = EventJournal(path)
        service = CampaignService(journal=journal)
        asyncio.run(_run_jobs(service, [CampaignJobSpec(config=_grid(), chunk_runs=2)]))
        journal.close()

        records = read_journal(path)
        kinds = [r["kind"] for r in records if r["kind"].startswith("job.")]
        assert kinds == [
            "job.queued",
            "job.started",
            "job.progress",
            "job.progress",
            "job.completed",
        ]
        replay = replay_jobs(records)[0]
        assert replay.status == "completed"
        assert (replay.completed, replay.total, replay.chunks) == (4, 4, 2)

    def test_concurrent_jobs_keep_sequences_strictly_monotonic(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = EventJournal(path)
        service = CampaignService(concurrency=2, journal=journal)
        specs = [CampaignJobSpec(config=_grid(), chunk_runs=1) for _ in range(2)]
        asyncio.run(_run_jobs(service, specs))
        journal.close()

        records = read_journal(path)
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        replays = replay_jobs(records)
        assert set(replays) == {0, 1}
        assert all(r.status == "completed" and r.completed == 4 for r in replays.values())

    def test_normalized_streams_of_identical_jobs_match(self, tmp_path):
        """Two executions of the same work journal the same job.* stream.

        This is the invariant the kill-and-replay smoke gate builds on:
        after stripping seq/ts, an interrupted journal must be a prefix
        of an uninterrupted one — which requires equal streams for equal
        completed work.
        """

        streams = []
        for name in ("a", "b"):
            path = str(tmp_path / f"journal-{name}.jsonl")
            journal = EventJournal(path)
            service = CampaignService(journal=journal)
            asyncio.run(
                _run_jobs(service, [CampaignJobSpec(config=_grid(), chunk_runs=2)])
            )
            journal.close()
            streams.append(job_event_stream(read_journal(path), job_id=0))
        assert streams[0] == streams[1]

    def test_failed_job_journals_the_error(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = EventJournal(path)
        service = CampaignService(journal=journal)

        def broken_factory():
            raise RuntimeError("factory exploded")

        async def scenario():
            await service.start()
            job = await service.submit(
                CampaignJobSpec(config=_grid(), strategy_factory=broken_factory)
            )
            try:
                await service.result(job)
            except RuntimeError:
                pass
            await service.stop()

        asyncio.run(scenario())
        journal.close()
        replay = replay_jobs(read_journal(path))[0]
        assert replay.status == "failed"
        assert "factory exploded" in replay.error
        failed = [r for r in read_journal(path) if r["kind"] == "job.failed"]
        assert failed and failed[0]["level"] == "error"


class TestCacheJournal:
    def test_cache_traffic_is_fingerprint_correlated(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = EventJournal(path)
        cache = RunCache(str(tmp_path / "cache"), code_epoch=EPOCH)
        telemetry = Telemetry(journal=journal)
        grid = _grid(repetitions=2)
        Campaign(grid).run(cache=cache, telemetry=telemetry)  # cold: misses + writes
        Campaign(grid).run(cache=cache, telemetry=telemetry)  # warm: hits
        journal.close()

        records = read_journal(path)
        kinds = Counter(r["kind"] for r in records)
        assert kinds["cache.miss"] == 2 and kinds["cache.write"] == 2
        assert kinds["cache.hit"] == 2
        assert all(r.get("fingerprint") for r in records)

    def test_fingerprint_bypass_journals_the_reason_at_warning(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = EventJournal(path)
        cache = RunCache(str(tmp_path / "cache"), code_epoch=EPOCH)
        cache = cache.with_telemetry(Telemetry(journal=journal))

        from repro.core.strategies import RandomStartStrategy
        from repro.injection.engine import SimulationConfig

        class UnknownStrategy(RandomStartStrategy):
            pass

        config = SimulationConfig(
            scenario="S1",
            initial_distance=60.0,
            seed=0,
            attack_type=AttackType.DECELERATION,
        )
        assert cache.fingerprint(config, UnknownStrategy()) is None
        journal.close()

        (record,) = read_journal(path)
        assert record["kind"] == "cache.bypass"
        assert record["level"] == "warning"
        assert "UnknownStrategy" in record["reason"]

    def test_corruption_quarantine_is_journaled(self, tmp_path):
        import glob
        import os

        path = str(tmp_path / "journal.jsonl")
        journal = EventJournal(path)
        cache = RunCache(str(tmp_path / "cache"), code_epoch=EPOCH)
        telemetry = Telemetry(journal=journal)
        grid = _grid(repetitions=1)
        Campaign(grid).run(cache=cache, telemetry=telemetry)
        (blob,) = glob.glob(os.path.join(str(tmp_path / "cache"), "*", "*", "*.json.z"))
        with open(blob, "wb") as handle:
            handle.write(b"rotten")
        Campaign(grid).run(cache=cache, telemetry=telemetry)
        journal.close()

        corruptions = [
            r for r in read_journal(path) if r["kind"] == "cache.corruption"
        ]
        assert len(corruptions) == 1
        assert corruptions[0]["level"] == "warning"
        assert corruptions[0]["fingerprint"] in blob


class TestJobCorrelatedCache:
    def _search_spec(self):
        from repro.search.driver import SearchConfig
        from repro.search.objectives import HazardObjective
        from repro.search.optimizers import make_optimizer
        from repro.search.space import attack_search_space
        from repro.service import SearchJobSpec

        return SearchJobSpec(
            space=attack_search_space(
                scenario="S1", attack_types=(AttackType.DECELERATION,), max_steps=150
            ),
            objective=HazardObjective(),
            optimizer_factory=lambda space: make_optimizer(
                "random", space, seed=2022, generation_size=2
            ),
            config=SearchConfig(budget=2, master_seed=2022),
        )

    def test_cache_events_carry_their_jobs_ids(self, tmp_path):
        """A grid served twice, then a search, on one journaled service:
        every ``cache.*`` record names its job (and a campaign job's
        chunk), so the job summaries show what the cache absorbed."""
        path = str(tmp_path / "journal.jsonl")
        journal = EventJournal(path)
        cache = RunCache(str(tmp_path / "cache"), code_epoch=EPOCH)
        service = CampaignService(cache=cache, journal=journal)
        specs = [CampaignJobSpec(config=_grid(), chunk_runs=1) for _ in range(2)]
        specs.append(self._search_spec())
        asyncio.run(_run_jobs(service, specs))
        journal.close()

        records = read_journal(path)
        owner = None  # jobs run one at a time: the job started last
        per_job = Counter()
        for record in records:
            if record["kind"] == "job.started":
                owner = record["job_id"]
            elif record["kind"].startswith("cache."):
                assert record.get("job_id") == owner, record
                if owner < 2:
                    assert isinstance(record.get("chunk_id"), int), record
                per_job[owner, record["kind"]] += 1
        assert per_job[0, "cache.miss"] == 4 and per_job[0, "cache.write"] == 4
        assert per_job[1, "cache.hit"] == 4 and per_job[1, "cache.miss"] == 0
        assert per_job[2, "cache.miss"] + per_job[2, "cache.hit"] > 0

        lines = job_summaries(records)
        assert "4 cache misses" in lines[0]
        assert "4 cache hits" in lines[1]


class TestSupervisorJournal:
    def test_recovery_trail_is_journaled_with_bound_correlation(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = EventJournal(path)
        chaos = ChaosPolicy(
            faults=(
                FaultSpec(kind="error", task_index=1, times=1),
                FaultSpec(kind="crash", task_index=3, times=1),
            ),
            state_dir=str(tmp_path / "chaos"),
            seed=7,
        )
        outcome = run_supervised_simulations(
            Campaign(_grid(repetitions=6, max_steps=100)).tasks(),
            policy=SupervisionPolicy(max_chunk_attempts=3, backoff_base=0.0),
            workers=2,
            chunk_size=2,
            chaos=chaos,
            telemetry=Telemetry(journal=journal).bind(job_id=5, chunk_id=0),
        )
        journal.close()

        records = read_journal(path)
        kinds = Counter(r["kind"] for r in records)
        assert len(outcome.completed_results) == 6
        assert kinds["supervisor.retry"] == outcome.report.retries > 0
        assert kinds["supervisor.respawn"] == outcome.report.pool_respawns > 0
        assert all(r["job_id"] == 5 and r["chunk_id"] == 0 for r in records)

    def test_resumed_run_journals_one_cache_hit_per_restored_run(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        tasks = Campaign(_grid(repetitions=4, max_steps=100)).tasks

        journal = EventJournal(path)
        telemetry = Telemetry(journal=journal)

        class Interrupted(Exception):
            pass

        def interrupt_after_two(completed, _total):
            if completed >= 2:
                raise Interrupted()

        try:
            run_supervised_simulations(  # dies after its first chunk
                tasks(),
                workers=1,
                chunk_size=2,
                cache=RunCache(str(tmp_path / "cache"), code_epoch=EPOCH),
                progress=interrupt_after_two,
                telemetry=telemetry,
            )
        except Interrupted:
            pass
        outcome = run_supervised_simulations(  # resumes: two restored from the cache
            tasks(),
            workers=1,
            chunk_size=2,
            cache=RunCache(str(tmp_path / "cache"), code_epoch=EPOCH),
            telemetry=telemetry,
        )
        journal.close()

        assert outcome.report.loaded_from_cache == 2
        kinds = Counter(r["kind"] for r in read_journal(path))
        assert kinds["cache.hit"] == 2
        assert kinds["cache.miss"] == 4 + 2 and kinds["cache.write"] == 4
