"""Integration tests: every event is emitted once, through the telemetry handle.

The service (``job.*``), the run cache (``cache.*``), the task loop
(``supervisor.*``) and the search driver (``search.generation``) each
report an event with one :meth:`~repro.telemetry.Telemetry.emit` call,
and :data:`~repro.telemetry.EVENTS` says what that call leaves behind.
These tests drive each emitter for real and check, kind by kind, that
the counters, the journal line and the trace marker are exactly what the
table says; that a dispatch's handle receives its cache traffic; that
the journal of a fixed service scenario is the one pinned in
``tests/golden/service_journal.json``; and that a search counts only the
simulations its own dispatches paid for.

pytest-asyncio is deliberately not a dependency: each service scenario
is driven with ``asyncio.run`` from a plain sync function.
"""

import asyncio
import json
import os
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

import pytest

from repro.core.attack_types import AttackType
from repro.injection.campaign import Campaign, CampaignConfig
from repro.obs.journal import EventJournal, read_journal
from repro.resilience.chaos import ChaosPolicy, FaultSpec
from repro.resilience.supervisor import SupervisionPolicy, run_supervised_simulations
from repro.search.driver import SearchConfig, SearchDriver
from repro.search.objectives import HazardObjective
from repro.search.optimizers import make_optimizer
from repro.search.space import attack_search_space
from repro.service import CampaignJobSpec, CampaignService, RunCache, SearchJobSpec
from repro.telemetry import EVENTS, Telemetry, TelemetryConfig

EPOCH = "service-journal-pin"
PIN = os.path.join(os.path.dirname(__file__), os.pardir, "golden", "service_journal.json")

#: Journal fields added since the pin was taken, by kind (the pin holds
#: the lines as they were; ``paid`` carries a generation's fresh
#: simulations, which its ``search.simulations`` counter adds up).
ADDED_FIELDS = {"search.generation": ("paid",)}

#: The :class:`~repro.service.CacheStats` field behind each cache counter.
CACHE_COUNTERS = {
    "hits": "cache.hits",
    "misses": "cache.misses",
    "bypasses": "cache.bypasses",
    "corruptions": "cache.corruptions",
    "writes": "cache.writes",
    "evictions": "cache.evictions",
}


def _grid(repetitions=2):
    return CampaignConfig(
        strategy_name="Context-Aware",
        scenarios=("S1",),
        initial_distances=(60.0,),
        attack_types=(AttackType.DECELERATION,),
        repetitions=repetitions,
        max_steps=150,
    )


def _broken_factory():
    raise RuntimeError("factory exploded")


def _search_space():
    return attack_search_space(
        scenario="S1", attack_types=(AttackType.DECELERATION,), max_steps=150
    )


def _random_optimizer(space):
    return make_optimizer("random", space, seed=2022, generation_size=2)


def _scenario_specs():
    """A cold and a warm job on one cache, a failing job, and a search."""
    return [
        CampaignJobSpec(config=_grid(), chunk_runs=1),
        CampaignJobSpec(config=_grid(), chunk_runs=1),
        CampaignJobSpec(config=_grid(), strategy_factory=_broken_factory),
        SearchJobSpec(
            space=_search_space(),
            objective=HazardObjective(),
            optimizer_factory=_random_optimizer,
            config=SearchConfig(budget=3, master_seed=2022),
        ),
    ]


async def _run_one_at_a_time(service, specs):
    """Run each job to its end before submitting the next; returns every
    job's streamed events and result (``None`` for a failed job)."""
    await service.start()
    streamed, results = [], []
    for spec in specs:
        job = await service.submit(spec)
        streamed.append([event async for event in service.events(job)])
        try:
            results.append(await service.result(job))
        except RuntimeError:
            results.append(None)
    await service.stop()
    return streamed, results


def _split(records):
    """``job.*`` lines and every other line, each in journal order.

    A search job's progress events hop to the event loop while its next
    generation's cache events are written from the executor thread, so
    only the two streams, not their interleaving, are deterministic.
    """
    jobs = [r for r in records if r["kind"].startswith("job.")]
    return jobs, [r for r in records if not r["kind"].startswith("job.")]


def _normalized(records):
    return [
        {
            key: value
            for key, value in record.items()
            if key not in ("seq", "ts") and key not in ADDED_FIELDS.get(record["kind"], ())
        }
        for record in records
    ]


def _cache_counters(telemetry):
    counters = telemetry.snapshot()["counters"]
    return {name: value for name, value in counters.items() if name in CACHE_COUNTERS.values()}


def _stats_as_counters(stats):
    return {
        name: getattr(stats, field)
        for field, name in CACHE_COUNTERS.items()
        if getattr(stats, field)
    }


# -- one row per kind ------------------------------------------------------------


@dataclass
class Observed:
    """One emitter driven under a traced, journaled handle."""

    telemetry: Telemetry
    records: List[dict]
    events: Dict[str, int]  # the emitter's own record of each kind it reported


def _journaled(tmp_path_factory, name):
    path = str(tmp_path_factory.mktemp(name) / "journal.jsonl")
    return path, EventJournal(path)


def _service_scenario(tmp_path_factory) -> Observed:
    path, journal = _journaled(tmp_path_factory, "service")
    telemetry = Telemetry(TelemetryConfig(trace=True))
    cache = RunCache(str(tmp_path_factory.mktemp("service-cache")), code_epoch=EPOCH)
    service = CampaignService(cache=cache, telemetry=telemetry, journal=journal)
    streamed, results = asyncio.run(_run_one_at_a_time(service, _scenario_specs()))
    journal.close()
    events = Counter(f"job.{event.kind}" for stream in streamed for event in stream)
    events.update(
        {
            "cache.hit": cache.stats.hits,
            "cache.miss": cache.stats.misses,
            "cache.write": cache.stats.writes,
            "search.generation": len(results[-1].trail),
        }
    )
    return Observed(telemetry, read_journal(path), dict(events))


def _cache_scenario(tmp_path_factory) -> Observed:
    """Bypass, corruption and eviction, straight on a cache view."""
    from repro.core.strategies import ContextAwareStrategy, RandomStartStrategy
    from repro.injection.engine import SimulationConfig, run_simulation

    class Unregistered(RandomStartStrategy):
        pass

    path, journal = _journaled(tmp_path_factory, "cache")
    telemetry = Telemetry(TelemetryConfig(trace=True), journal=journal)
    root = RunCache(str(tmp_path_factory.mktemp("cache-store")), max_entries=1, code_epoch=EPOCH)
    cache = root.with_telemetry(telemetry)
    config = SimulationConfig(
        scenario="S1", initial_distance=60.0, seed=1, attack_type=AttackType.DECELERATION,
        max_steps=100,
    )
    assert cache.fingerprint(config, Unregistered()) is None
    key = cache.fingerprint(config, ContextAwareStrategy())
    result = run_simulation(config, ContextAwareStrategy())
    cache.put(key, result)
    with open(cache._blob_path(key), "wb") as handle:
        handle.write(b"rot")
    assert cache.get(key) is None
    cache.put(key, result)
    other = SimulationConfig(
        scenario="S1", initial_distance=60.0, seed=2, attack_type=AttackType.DECELERATION,
        max_steps=100,
    )
    cache.put(cache.fingerprint(other, ContextAwareStrategy()), result)
    journal.close()
    stats = root.stats
    events = {
        "cache.bypass": stats.bypasses,
        "cache.corruption": stats.corruptions,
        "cache.evict": stats.evictions,
    }
    return Observed(telemetry, read_journal(path), events)


def _supervised_scenario(tmp_path_factory, name, faults, policy) -> Observed:
    path, journal = _journaled(tmp_path_factory, name)
    telemetry = Telemetry(TelemetryConfig(trace=True), journal=journal)
    chaos = ChaosPolicy(
        faults=faults, state_dir=str(tmp_path_factory.mktemp(f"{name}-chaos")), seed=7
    )
    outcome = run_supervised_simulations(
        Campaign(_grid(repetitions=6)).tasks(),
        policy=policy,
        workers=2,
        chunk_size=2,
        chaos=chaos,
        telemetry=telemetry.bind(job_id=0),
    )
    journal.close()
    report = outcome.report
    events = {
        "supervisor.retry": report.retries,
        "supervisor.bisect": report.bisections,
        "supervisor.quarantine": len(report.quarantine.tasks),
        "supervisor.timeout": report.timeouts,
        "supervisor.respawn": report.pool_respawns,
        "supervisor.degraded": int(report.degraded_to_sequential),
    }
    return Observed(telemetry, read_journal(path), events)


@pytest.fixture(scope="module")
def observed(tmp_path_factory) -> Dict[str, Observed]:
    """For every kind, the driven emitter that reported it."""
    scenarios = [
        _service_scenario(tmp_path_factory),
        _cache_scenario(tmp_path_factory),
        # A task that fails once (retry) and a poison task (retries,
        # bisection, quarantine).
        _supervised_scenario(
            tmp_path_factory,
            "poison",
            (
                FaultSpec(kind="error", task_index=1, times=1),
                FaultSpec(kind="error", task_index=4, times=-1),
            ),
            SupervisionPolicy(max_chunk_attempts=2, backoff_base=0.0),
        ),
        # A hung worker (timeout, respawn) with no respawn to spare
        # (degraded to sequential).
        _supervised_scenario(
            tmp_path_factory,
            "hang",
            (FaultSpec(kind="hang", task_index=0, hang_seconds=20.0),),
            SupervisionPolicy(chunk_timeout=1.0, backoff_base=0.0, max_pool_respawns=0),
        ),
    ]
    by_kind = {}
    for scenario in scenarios:
        for kind, count in scenario.events.items():
            if count:
                by_kind.setdefault(kind, scenario)
    return by_kind


@pytest.mark.parametrize("kind", sorted(EVENTS))
def test_each_event_leaves_exactly_its_table_row(observed, kind):
    """Counters move by the row's amounts, one journal line per event at
    the row's level, and a trace marker if and only if the row asks."""
    assert kind in observed, f"no scenario drives {kind}"
    seen = observed[kind]
    level, counters, marked = EVENTS[kind]
    lines = [record for record in seen.records if record["kind"] == kind]
    assert len(lines) == seen.events[kind] > 0
    assert {record["level"] for record in lines} == {level}
    snapshot = seen.telemetry.snapshot()["counters"]
    for name, field in counters.items():
        expected = sum(1 if field is None else record.get(field, 0) for record in lines)
        assert snapshot[name] == expected, name
    markers = [span for span in seen.telemetry.tracer if span[0] == kind and span[3] == 0]
    assert len(markers) == (len(lines) if marked else 0)


def test_supervisor_lines_keep_their_fields_and_correlation(observed):
    """Each recovery line carries the fields it always had, plus the ids
    bound on the dispatch's handle."""
    fields = {
        "supervisor.retry": {"anchor", "attempt", "backoff_s", "error"},
        "supervisor.bisect": {"anchor", "tasks", "error"},
        "supervisor.quarantine": {"task", "fingerprint", "attempt", "error"},
        "supervisor.timeout": {"anchor", "tasks", "timeout_s"},
        "supervisor.respawn": {"respawns"},
        "supervisor.degraded": {"respawns"},
    }
    envelope = {"v", "kind", "level", "seq", "ts", "job_id"}
    for kind, names in fields.items():
        for record in observed[kind].records:
            if record["kind"] == kind:
                assert set(record) == envelope | names, record


# -- a dispatch's handle gets its cache traffic ----------------------------------


def test_campaign_handle_counts_its_cache_traffic(tmp_path):
    telemetry = Telemetry(TelemetryConfig(probe_stages=False))
    cache = RunCache(str(tmp_path / "cache"), code_epoch=EPOCH)
    Campaign(_grid()).run(telemetry=telemetry, cache=cache)  # cold
    Campaign(_grid()).run(telemetry=telemetry, cache=cache)  # warm
    assert cache.stats.hits == cache.stats.misses == cache.stats.writes == 2
    assert _cache_counters(telemetry) == _stats_as_counters(cache.stats)


def test_service_handle_counts_its_cache_traffic(tmp_path):
    telemetry = Telemetry(TelemetryConfig(probe_stages=False))
    cache = RunCache(str(tmp_path / "cache"), code_epoch=EPOCH)
    service = CampaignService(cache=cache, telemetry=telemetry)
    specs = [CampaignJobSpec(config=_grid()), CampaignJobSpec(config=_grid())]
    asyncio.run(_run_one_at_a_time(service, specs))
    assert cache.stats.hits == cache.stats.misses == 2
    assert _cache_counters(telemetry) == _stats_as_counters(cache.stats)


# -- the pinned service journal --------------------------------------------------


def test_service_journal_matches_the_pin(tmp_path):
    """A cold and a warm job on one cache, a failing job and a search
    journal exactly the lines pinned in ``tests/golden``."""
    path = str(tmp_path / "journal.jsonl")
    journal = EventJournal(path)
    cache = RunCache(str(tmp_path / "cache"), code_epoch=EPOCH)
    service = CampaignService(cache=cache, journal=journal)
    asyncio.run(_run_one_at_a_time(service, _scenario_specs()))
    journal.close()
    records = read_journal(path)
    with open(PIN, encoding="utf-8") as handle:
        pinned = json.load(handle)
    assert [_normalized(stream) for stream in _split(records)] == [
        _normalized(stream) for stream in _split(pinned)
    ]
    generations = [r for r in records if r["kind"] == "search.generation"]
    assert [r["paid"] for r in generations] == [
        r["simulations"] - previous
        for r, previous in zip(generations, [0] + [g["simulations"] for g in generations])
    ]


def test_journal_only_service_counts_into_its_own_registry_without_stage_probes(tmp_path):
    journal = EventJournal(str(tmp_path / "journal.jsonl"))
    cache = RunCache(str(tmp_path / "cache"), code_epoch=EPOCH)
    service = CampaignService(cache=cache, journal=journal)
    asyncio.run(_run_one_at_a_time(service, [CampaignJobSpec(config=_grid())]))
    journal.close()
    assert service.telemetry is None
    own = service._own.snapshot()
    assert own["counters"]["service.jobs_submitted"] == 1
    assert own["counters"]["cache.misses"] == cache.stats.misses == 2
    assert not [name for name in own["histograms"] if name.startswith("perf.stage.")]


# -- a search pays only for its own simulations ----------------------------------


class _SharedWithABusyJob(RunCache):
    """A run cache shared with another job, which misses once for every
    run this search stores: the shared stats move during the search's
    own dispatches, deterministically."""

    def put(self, key, result):
        super().put(key, result)
        self.stats.misses += 1


def test_search_counts_only_the_simulations_it_paid_for(tmp_path):
    cache = _SharedWithABusyJob(str(tmp_path / "cache"), code_epoch=EPOCH)
    driver = SearchDriver(
        _search_space(),
        HazardObjective(),
        _random_optimizer,
        SearchConfig(budget=4, master_seed=2022),
        run_cache=cache,
    )
    result = driver.run()
    assert result.evaluations_used == 4
    assert result.simulations_run == cache.stats.writes == 4
