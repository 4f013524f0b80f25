"""Edge cases of the executor's chunking rules, the task loop's contract
with its chunk body (payload validation, accept-then-cache) and the
crash-safe atomic write helper."""

import json
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.metrics import RunResult
from repro.core.attack_types import AttackType
from repro.core.strategies import ContextAwareStrategy
from repro.injection.engine import SimulationConfig
from repro.injection.executor import _chunked, resolve_chunk_size, run_simulations
from repro.resilience.checkpoint import atomic_write_json
from repro.resilience import supervisor
from repro.resilience.errors import TaskExecutionError
from repro.resilience.supervisor import (
    SupervisedExecutor,
    SupervisionPolicy,
    run_supervised_simulations,
)
from repro.service.cache import RunCache


class TestChunked:
    def test_empty_list_yields_no_chunks(self):
        assert _chunked([], 4) == []

    def test_chunk_size_larger_than_total(self):
        assert _chunked([1, 2, 3], 10) == [[1, 2, 3]]

    def test_chunk_size_one(self):
        assert _chunked([1, 2, 3], 1) == [[1], [2], [3]]

    def test_exact_division(self):
        assert _chunked([1, 2, 3, 4], 2) == [[1, 2], [3, 4]]

    def test_remainder_chunk_is_short(self):
        assert _chunked([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]


class TestResolveChunkSize:
    def test_explicit_chunk_size_wins(self):
        assert resolve_chunk_size(1000, 4, chunk_size=7) == 7
        assert resolve_chunk_size(1000, 4, batch_size=16, chunk_size=7) == 7

    def test_explicit_chunk_size_clamped_to_one(self):
        assert resolve_chunk_size(1000, 4, chunk_size=0) == 1
        assert resolve_chunk_size(1000, 4, chunk_size=-3) == 1

    def test_default_targets_four_chunks_per_worker(self):
        # 1000 cells on 4 workers -> ceil(1000 / 16) = 63 cells per chunk.
        assert resolve_chunk_size(1000, 4) == 63

    def test_total_smaller_than_worker_fanout(self):
        # Never returns 0 even when the grid is tiny.
        assert resolve_chunk_size(1, 8) == 1
        assert resolve_chunk_size(0, 8) == 1
        assert resolve_chunk_size(0, 8, batch_size=16) == 1

    def test_batched_chunks_hold_a_full_batch(self):
        # 100 tasks on 2 workers at batch 16: full batches, and still at
        # least two chunks per worker for stragglers to rebalance.
        size = resolve_chunk_size(100, 2, batch_size=16)
        chunks = _chunked(list(range(100)), size)
        assert all(len(chunk) >= 16 for chunk in chunks[:-1])
        assert len(chunks) >= 2 * 2

    def test_batched_small_grid_gets_one_chunk_per_worker(self):
        # 24 tasks cannot fill a 16-wide batch per worker: one chunk each.
        size = resolve_chunk_size(24, 2, batch_size=16)
        assert len(_chunked(list(range(24)), size)) == 2

    def test_batched_large_grid_keeps_four_chunks_per_worker(self):
        # 1,440 tasks on 2 workers -> ceil(1440 / 8) = 180 per chunk.
        assert resolve_chunk_size(1440, 2, batch_size=16) == 180

    @pytest.mark.parametrize(
        "total, workers, batch_size, chunk_size",
        [(100, 2, 16, None), (24, 2, 16, None), (1440, 2, 16, None), (1000, 4, None, None),
         (100, 2, 16, 7), (100, 1, 16, None), (1000, 1, None, None)],
    )
    def test_every_dispatcher_cuts_by_the_same_rule(
        self, monkeypatch, total, workers, batch_size, chunk_size
    ):
        """The one task loop hands out chunks of the sizes the one rule
        gives, pooled and in-process alike (the chunk body and the pool
        are stubbed: only the chunking is under test)."""
        size = resolve_chunk_size(total, workers, batch_size, chunk_size)
        expected = [len(chunk) for chunk in _chunked(list(range(total)), size)]

        submitted = []

        def run_chunk(entries, *args):
            submitted.append(len(entries))
            return [(index, _result(index)) for index, _ in entries], None

        monkeypatch.setattr(supervisor, "_run_chunk", run_chunk)
        monkeypatch.setattr(
            SupervisedExecutor, "_spawn_pool", lambda self: ThreadPoolExecutor(max_workers=1)
        )
        results = run_simulations(
            [(None, None)] * total,
            workers=workers,
            chunk_size=chunk_size,
            batch_size=batch_size,
        )
        assert submitted == expected
        assert [result.seed for result in results] == list(range(total))


def test_run_simulations_empty_task_list():
    assert run_simulations([]) == []
    assert run_simulations([], workers=4) == []


class TestOneTaskLoop:
    """The loop's contract with its chunk body, stubbed so nothing is
    simulated: every payload is validated, with or without a policy, and
    only accepted results reach the run cache, which is what a rerun of
    an interrupted dispatch resumes from."""

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda pairs: pairs[:-1], "short or corrupted payload"),
            (lambda pairs: pairs[::-1], "short or corrupted payload"),
            (lambda pairs: [(index, "garbage") for index, _ in pairs], "not a RunResult"),
        ],
        ids=["short", "reordered", "not-a-result"],
    )
    def test_a_bad_payload_fails_fast_without_a_policy(self, monkeypatch, mangle, message):
        def run_chunk(entries, *args):
            return mangle([(index, _result(index)) for index, _ in entries]), None

        monkeypatch.setattr(supervisor, "_run_chunk", run_chunk)
        with pytest.raises(TaskExecutionError, match=message):
            run_simulations([(None, None)] * 3, chunk_size=3)

    def test_a_rejected_attempt_is_retried_and_never_cached(self, monkeypatch, tmp_path):
        attempts = []

        def run_chunk(entries, *args):
            attempts.append(len(entries))
            first = len(attempts) == 1
            return [(index, "garbage" if first else _result(index)) for index, _ in entries], None

        monkeypatch.setattr(supervisor, "_run_chunk", run_chunk)
        outcome = run_supervised_simulations(
            _tasks(2),
            policy=SupervisionPolicy(backoff_base=0.0),
            chunk_size=2,
            cache=_cache(tmp_path),
        )
        assert attempts == [2, 2]
        assert outcome.report.retries == 1
        assert [run.to_dict() for run in outcome.results] == [_result(i).to_dict() for i in (0, 1)]

        warm = run_supervised_simulations(_tasks(2), cache=_cache(tmp_path))
        assert attempts == [2, 2]  # served from the cache, nothing paid
        assert warm.report.loaded_from_cache == 2
        assert [run.to_dict() for run in warm.results] == [_result(i).to_dict() for i in (0, 1)]

    def test_chunks_accepted_before_a_failure_stay_in_the_cache(self, monkeypatch, tmp_path):
        calls = []
        failing = {2}

        def run_chunk(entries, *args):
            calls.append([index for index, _ in entries])
            if entries[0][0] in failing:
                raise TaskExecutionError(f"task {entries[0][0]} failed")
            return [(index, _result(index)) for index, _ in entries], None

        monkeypatch.setattr(supervisor, "_run_chunk", run_chunk)
        with pytest.raises(TaskExecutionError, match="task 2 failed"):
            run_simulations(_tasks(4), chunk_size=1, cache=_cache(tmp_path))
        assert calls == [[0], [1], [2]]  # no policy: the first failure stops the loop

        failing.clear()
        resumed = run_supervised_simulations(_tasks(4), chunk_size=1, cache=_cache(tmp_path))
        assert calls[3:] == [[2], [3]]  # the rerun pays only for what was not accepted
        assert resumed.report.loaded_from_cache == 2
        assert [run.seed for run in resumed.results] == [0, 1, 2, 3]


class TestAtomicWriteJson:
    def test_writes_payload(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"a": 1})
        with open(path) as handle:
            assert json.load(handle) == {"a": 1}

    def test_leaves_no_temp_file(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"a": 1})
        assert os.listdir(tmp_path) == ["out.json"]

    def test_crash_between_write_and_rename_keeps_previous(self, tmp_path):
        """A temp file written but never renamed (the crash window) must
        not affect what a resumed process loads."""
        path = str(tmp_path / "ck.json")
        atomic_write_json(path, {"generation": 1})
        # Simulate the crash: the next write reached the temp file but
        # died before os.replace.
        with open(f"{path}.tmp", "w") as handle:
            handle.write('{"generation": 2, "truncat')
        with open(path) as handle:
            assert json.load(handle) == {"generation": 1}

    def test_failed_rename_keeps_previous_and_removes_its_temp_file(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"generation": 1})

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_json(path, {"generation": 2})
        assert os.listdir(tmp_path) == ["out.json"]
        with open(path) as handle:
            assert json.load(handle) == {"generation": 1}


def _result(seed: int) -> RunResult:
    return RunResult(
        scenario="S1",
        initial_distance=50.0,
        attack_type="Acceleration",
        strategy="Context-Aware",
        seed=seed,
        driver_enabled=True,
        duration=1.0,
    )


def _tasks(count: int):
    """Cacheable tasks (seeds 0 .. count-1) for a stubbed chunk body."""
    return [
        (
            SimulationConfig(
                scenario="S1",
                initial_distance=50.0,
                seed=seed,
                attack_type=AttackType.ACCELERATION,
            ),
            ContextAwareStrategy(),
        )
        for seed in range(count)
    ]


def _cache(tmp_path) -> RunCache:
    return RunCache(str(tmp_path / "cache"), code_epoch="task-loop-test")
