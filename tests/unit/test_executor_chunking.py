"""Edge cases of the executor's chunking rules and the crash-safe
checkpoint file format (atomicity, fingerprint validation)."""

import json
import os
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from repro.analysis.metrics import RunResult
from repro.injection import executor
from repro.injection.executor import (
    ParallelCampaignRunner,
    _chunked,
    resolve_chunk_size,
    run_simulations,
)
from repro.resilience.checkpoint import (
    CAMPAIGN_CHECKPOINT_VERSION,
    CampaignCheckpoint,
    CheckpointMismatch,
    atomic_write_json,
    checkpoint_slug,
    fingerprint_strings,
)
from repro.resilience import supervisor
from repro.resilience.supervisor import SupervisedExecutor


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
         (100, 2, 16, 7)],
    )
    def test_every_dispatcher_cuts_by_the_same_rule(
        self, monkeypatch, total, workers, batch_size, chunk_size
    ):
        """The campaign runner, ``run_simulations`` and the supervised
        executor hand out chunks of the sizes the one rule gives (the
        pools are stubbed: only the chunking is under test)."""
        size = resolve_chunk_size(total, workers, batch_size, chunk_size)
        expected = [len(chunk) for chunk in _chunked(list(range(total)), size)]

        dispatched = []
        monkeypatch.setattr(
            executor,
            "_dispatch",
            lambda worker_fn, chunks, *args, **kwargs: dispatched.append(
                [len(chunk) for _, chunk in chunks]
            ) or [],
        )
        grid = SimpleNamespace(cells=lambda: list(range(total)))
        ParallelCampaignRunner(
            grid, workers=workers, chunk_size=chunk_size, batch_size=batch_size
        ).run()
        run_simulations(
            [(None, None)] * total,
            workers=workers,
            chunk_size=chunk_size,
            batch_size=batch_size,
        )
        assert dispatched == [expected, expected]

        submitted = []

        def run_chunk(payload):
            _, _, entries = payload
            submitted.append(len(entries))
            return [(index, _result(index)) for index, _ in entries]

        monkeypatch.setattr(supervisor, "_run_supervised_chunk", run_chunk)
        monkeypatch.setattr(
            SupervisedExecutor, "_spawn_pool", lambda self: ThreadPoolExecutor(max_workers=1)
        )
        SupervisedExecutor(
            workers=workers, chunk_size=chunk_size, batch_size=batch_size
        ).run_tasks([(None, None)] * total)
        assert submitted == expected


def test_run_simulations_empty_task_list():
    assert run_simulations([]) == []
    assert run_simulations([], workers=4) == []


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


class TestCampaignCheckpoint:
    def _checkpoint(self, tmp_path, fingerprint="fp", total=3):
        return CampaignCheckpoint(str(tmp_path / "ck.json"), fingerprint, total)

    def test_load_missing_file_is_empty(self, tmp_path):
        assert self._checkpoint(tmp_path).load() == {}

    def test_roundtrip(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.record(0, _result(10))
        checkpoint.record(2, _result(12))
        checkpoint.flush()

        resumed = self._checkpoint(tmp_path)
        loaded = resumed.load()
        assert sorted(loaded) == [0, 2]
        assert loaded[0].to_dict() == _result(10).to_dict()
        assert loaded[2].to_dict() == _result(12).to_dict()
        assert resumed.loaded == 2

    def test_flush_is_noop_when_clean(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.flush()
        assert not os.path.exists(checkpoint.path)

    def test_fingerprint_mismatch_refuses_to_load(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path, fingerprint="fp-a")
        checkpoint.record(0, _result(1))
        checkpoint.flush()
        with pytest.raises(CheckpointMismatch, match="fingerprint"):
            self._checkpoint(tmp_path, fingerprint="fp-b").load()

    def test_total_mismatch_refuses_to_load(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path, total=3)
        checkpoint.record(0, _result(1))
        checkpoint.flush()
        with pytest.raises(CheckpointMismatch, match="tasks"):
            self._checkpoint(tmp_path, total=4).load()

    def test_version_mismatch_refuses_to_load(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        atomic_write_json(
            checkpoint.path,
            {
                "version": CAMPAIGN_CHECKPOINT_VERSION + 1,
                "fingerprint": "fp",
                "total": 3,
                "results": {},
            },
        )
        with pytest.raises(CheckpointMismatch, match="version"):
            checkpoint.load()

    def test_invalid_json_refuses_to_load(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        with open(checkpoint.path, "w") as handle:
            handle.write("not json")
        with pytest.raises(CheckpointMismatch, match="JSON"):
            checkpoint.load()

    def test_out_of_range_index_refuses_to_load(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path, total=2)
        atomic_write_json(
            checkpoint.path,
            {
                "version": CAMPAIGN_CHECKPOINT_VERSION,
                "fingerprint": "fp",
                "total": 2,
                "results": {"5": _result(1).to_dict()},
            },
        )
        with pytest.raises(CheckpointMismatch, match="out of range"):
            checkpoint.load()

    def test_remove_is_idempotent(self, tmp_path):
        checkpoint = self._checkpoint(tmp_path)
        checkpoint.record(0, _result(1))
        checkpoint.flush()
        checkpoint.remove()
        assert not os.path.exists(checkpoint.path)
        checkpoint.remove()  # second remove must not raise


def test_fingerprint_strings_is_order_sensitive():
    assert fingerprint_strings(["a", "b"]) != fingerprint_strings(["b", "a"])
    assert fingerprint_strings(["a", "b"]) == fingerprint_strings(["a", "b"])
    # Concatenation ambiguity must not collide ("ab"+"c" vs "a"+"bc").
    assert fingerprint_strings(["ab", "c"]) != fingerprint_strings(["a", "bc"])


def test_checkpoint_slug():
    assert checkpoint_slug("Context-Aware (fixed values)") == "Context-Aware_fixed_values"
    assert checkpoint_slug("Random ST+DUR") == "Random_ST_DUR"
    assert checkpoint_slug("***") == "unnamed"
