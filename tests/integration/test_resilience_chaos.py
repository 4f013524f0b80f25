"""Chaos suite: every recovery path of the supervised executor yields
bit-identical results to an undisturbed run.

The deterministic fault-injection harness (:mod:`repro.resilience.chaos`)
makes pool workers raise, crash, hang, or corrupt/short-change their
result payloads at chosen task indices.  Each test asserts that after the
supervisor absorbed the fault (retry, pool respawn, timeout kill,
bisection + quarantine, degradation to sequential, resume from the run
cache) the surviving :class:`RunResult` records equal an undisturbed
sequential run bit for bit — the same invariant the parallel and batched
executors are held to.
"""

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.attack_types import AttackType
from repro.core.strategies import ContextAwareStrategy
from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.engine import SimulationConfig
from repro.injection.executor import run_simulations
from repro.resilience import (
    FaultSpec,
    SupervisionPolicy,
    TaskExecutionError,
    chaos_policy,
    run_supervised_simulations,
)
from repro.resilience.supervisor import SupervisedExecutor
from repro.service import RunCache

#: Tiny but non-trivial grid: 2 distances x 2 attacks x 2 reps = 8 runs.
CAMPAIGN_CONFIG = CampaignConfig(
    strategy_name="Context-Aware",
    scenarios=("S1",),
    initial_distances=(50.0, 70.0),
    attack_types=(AttackType.ACCELERATION, AttackType.DECELERATION),
    repetitions=2,
    max_steps=600,
)

#: Fast supervision policy for tests (no multi-second backoff sleeps).
FAST = SupervisionPolicy(backoff_base=0.01)


@pytest.fixture(scope="module")
def campaign():
    return Campaign(CAMPAIGN_CONFIG)


@pytest.fixture(scope="module")
def baseline(campaign):
    """The undisturbed sequential run every chaos test compares against."""
    return [result.to_dict() for result in campaign.run()]


def _dicts(results):
    return [result.to_dict() for result in results]


def _supervised(campaign, **kwargs):
    return run_supervised_simulations(campaign.tasks(), **kwargs)


class TestCleanSupervision:
    """No faults: supervision must be an invisible wrapper."""

    def test_sequential(self, campaign, baseline):
        outcome = _supervised(campaign, workers=1, policy=FAST)
        assert _dicts(outcome.completed_results) == baseline
        assert not outcome.report.quarantine
        assert outcome.report.retries == 0

    def test_parallel_batched(self, campaign, baseline):
        outcome = _supervised(campaign, workers=2, batch_size=4, policy=FAST)
        assert _dicts(outcome.completed_results) == baseline

    def test_campaign_run_routes_through_supervisor(self, campaign, baseline):
        runs = campaign.run(workers=2, supervision=FAST)
        assert _dicts(runs) == baseline


class TestFaultRecovery:
    """Injected worker faults with finite budgets: the retry is clean, so
    the recovered results are bit-identical."""

    def _run_with_fault(self, campaign, fault, tmp_path, policy=FAST, **kwargs):
        chaos = chaos_policy([fault], state_dir=str(tmp_path / "chaos"))
        return _supervised(campaign, workers=2, chaos=chaos, policy=policy, **kwargs)

    def test_worker_exception_is_retried(self, campaign, baseline, tmp_path):
        outcome = self._run_with_fault(
            campaign, FaultSpec(kind="error", task_index=3), tmp_path
        )
        assert _dicts(outcome.completed_results) == baseline
        assert outcome.report.retries >= 1

    def test_worker_crash_respawns_pool(self, campaign, baseline, tmp_path):
        outcome = self._run_with_fault(
            campaign, FaultSpec(kind="crash", task_index=2), tmp_path
        )
        assert _dicts(outcome.completed_results) == baseline
        assert outcome.report.pool_respawns >= 1

    def test_hung_worker_is_killed_by_timeout(self, campaign, baseline, tmp_path):
        outcome = self._run_with_fault(
            campaign,
            FaultSpec(kind="hang", task_index=1, hang_seconds=20.0),
            tmp_path,
            policy=SupervisionPolicy(chunk_timeout=1.0, backoff_base=0.01),
        )
        assert _dicts(outcome.completed_results) == baseline
        assert outcome.report.timeouts >= 1
        assert outcome.report.pool_respawns >= 1

    def test_corrupted_payload_is_rejected_and_retried(self, campaign, baseline, tmp_path):
        outcome = self._run_with_fault(
            campaign, FaultSpec(kind="corrupt", task_index=5), tmp_path
        )
        assert _dicts(outcome.completed_results) == baseline
        assert outcome.report.retries >= 1

    def test_short_payload_is_rejected_and_retried(self, campaign, baseline, tmp_path):
        outcome = self._run_with_fault(
            campaign, FaultSpec(kind="drop", task_index=6), tmp_path
        )
        assert _dicts(outcome.completed_results) == baseline
        assert outcome.report.retries >= 1

    def test_repeated_crashes_degrade_to_sequential(self, campaign, baseline, tmp_path):
        outcome = self._run_with_fault(
            campaign,
            FaultSpec(kind="crash", task_index=0, times=10),
            tmp_path,
            policy=SupervisionPolicy(backoff_base=0.01, max_pool_respawns=1),
        )
        assert outcome.report.degraded_to_sequential
        assert _dicts(outcome.completed_results) == baseline

    def test_submit_into_a_pool_broken_since_the_last_sweep(
        self, campaign, baseline, monkeypatch
    ):
        """A worker that dies between two sweeps makes the next
        ``submit`` raise; the supervisor respawns instead of aborting."""
        spawn = SupervisedExecutor._spawn_pool
        spawned = []

        def spawn_first_broken(executor):
            pool = spawn(executor)
            if not spawned:
                pool = _BrokenSinceLastSweep(pool)
            spawned.append(pool)
            return pool

        monkeypatch.setattr(SupervisedExecutor, "_spawn_pool", spawn_first_broken)
        outcome = _supervised(campaign, workers=2, policy=FAST)
        assert _dicts(outcome.completed_results) == baseline
        assert outcome.report.pool_respawns == 1
        assert outcome.report.retries == 0


class _BrokenSinceLastSweep:
    """A process pool whose worker died after the supervisor's last
    sweep: ``submit`` raises, as ``ProcessPoolExecutor.submit`` then does."""

    def __init__(self, pool):
        self._pool = pool

    def submit(self, *args, **kwargs):
        raise BrokenProcessPool("a child process terminated abruptly")

    def __getattr__(self, name):
        return getattr(self._pool, name)


class TestQuarantine:
    """A task that fails every attempt is bisected out of its chunk and
    quarantined; everything else still completes bit-identically."""

    def test_poison_task_is_quarantined_not_fatal(self, campaign, baseline, tmp_path):
        chaos = chaos_policy(
            [FaultSpec(kind="error", task_index=4, times=-1)],
            state_dir=str(tmp_path / "chaos"),
        )
        outcome = _supervised(
            campaign,
            workers=2,
            chunk_size=4,  # force multi-task chunks so bisection must isolate #4
            chaos=chaos,
            policy=SupervisionPolicy(backoff_base=0.01, max_chunk_attempts=2),
        )
        assert outcome.report.quarantine.indices == [4]
        assert outcome.report.bisections >= 1
        quarantined = outcome.report.quarantine.tasks[0]
        assert "scenario=S1" in quarantined.fingerprint
        assert "seed=" in quarantined.fingerprint
        for index, expected in enumerate(baseline):
            if index == 4:
                assert outcome.results[index] is None
            else:
                assert outcome.results[index].to_dict() == expected

    def test_require_complete_raises_on_quarantine(self, campaign, tmp_path):
        chaos = chaos_policy(
            [FaultSpec(kind="error", task_index=0, times=-1)],
            state_dir=str(tmp_path / "chaos"),
        )
        outcome = _supervised(
            campaign,
            workers=2,
            chaos=chaos,
            policy=SupervisionPolicy(backoff_base=0.01, max_chunk_attempts=2),
        )
        with pytest.raises(TaskExecutionError, match="quarantined"):
            outcome.require_complete()


class _Interrupted(Exception):
    """Stand-in for the process dying mid-campaign."""


def _die_after(count):
    """A progress callback that interrupts the run once ``count`` results
    are in."""

    def progress(completed, _total):
        if completed >= count:
            raise _Interrupted()

    return progress


class TestCacheResume:
    """Resume is a rerun on the same run-cache directory."""

    def test_interrupted_campaign_resumes_bit_identically(self, campaign, baseline, tmp_path):
        """Kill the campaign after 3 results; the resumed run must load
        them from the cache, pay only for the rest, and produce the
        exact results of an uninterrupted run."""
        root = str(tmp_path / "cache")
        with pytest.raises(_Interrupted):
            _supervised(
                campaign, workers=1, chunk_size=1, cache=RunCache(root),
                progress=_die_after(3),
            )
        assert len(RunCache(root)) == 3

        outcome = _supervised(campaign, workers=1, cache=RunCache(root))
        assert outcome.report.loaded_from_cache == 3
        assert outcome.report.sims_paid == len(baseline) - 3
        assert _dicts(outcome.completed_results) == baseline

    def test_finished_run_resumes_for_free(self, campaign, baseline, tmp_path):
        root = str(tmp_path / "cache")
        _supervised(campaign, workers=1, cache=RunCache(root))
        outcome = _supervised(campaign, workers=1, cache=RunCache(root))
        assert outcome.report.loaded_from_cache == len(baseline)
        assert outcome.report.sims_paid == 0
        assert _dicts(outcome.completed_results) == baseline

    def test_resume_with_crash_fault_still_matches(self, campaign, baseline, tmp_path):
        """Interruption and a worker crash in the same campaign: resume +
        respawn still converge to the undisturbed results."""
        root = str(tmp_path / "cache")
        with pytest.raises(_Interrupted):
            _supervised(
                campaign, workers=1, chunk_size=1, cache=RunCache(root),
                progress=_die_after(2),
            )

        chaos = chaos_policy(
            [FaultSpec(kind="crash", task_index=6)], state_dir=str(tmp_path / "chaos")
        )
        outcome = _supervised(
            campaign, workers=2, cache=RunCache(root), chaos=chaos, policy=FAST
        )
        assert outcome.report.loaded_from_cache == 2
        assert outcome.report.pool_respawns >= 1
        assert _dicts(outcome.completed_results) == baseline


class _PoisonStrategy(ContextAwareStrategy):
    """A strategy that dies during preparation (picklable, module level)."""

    def prepare(self, rng):
        raise RuntimeError("poison strategy")


class TestFingerprintedErrors:
    """Satellite: a failing worker task surfaces its (scenario, attack,
    seed) fingerprint instead of a bare pool traceback — in the plain
    executor too, not only under supervision."""

    def _tasks(self):
        tasks = []
        for seed in (11, 12, 13):
            config = SimulationConfig(
                scenario="S1",
                initial_distance=50.0,
                seed=seed,
                attack_type=AttackType.ACCELERATION,
            )
            strategy = _PoisonStrategy() if seed == 12 else ContextAwareStrategy()
            tasks.append((config, strategy))
        return tasks

    def test_sequential_executor_names_the_failing_task(self):
        with pytest.raises(TaskExecutionError, match="seed=12"):
            run_simulations(self._tasks())

    def test_parallel_executor_names_the_failing_task(self):
        with pytest.raises(TaskExecutionError, match="seed=12"):
            run_simulations(self._tasks(), workers=2)

    def test_supervised_executor_quarantines_with_fingerprint(self):
        outcome = run_supervised_simulations(
            self._tasks(),
            workers=1,
            policy=SupervisionPolicy(backoff_base=0.01, max_chunk_attempts=2),
        )
        assert outcome.report.quarantine.indices == [1]
        assert "seed=12" in outcome.report.quarantine.tasks[0].fingerprint
        assert outcome.results[0] is not None
        assert outcome.results[2] is not None
