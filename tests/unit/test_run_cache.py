"""Unit tests for the persistent run cache (repro.service.cache) and the
durability contract of the atomic write path it builds on.

Covers: hit/miss/bypass accounting, bit-exact round trips, LRU
eviction, corruption quarantine-and-recompute, concurrent writers via
unique-temp atomic rename, and the directory-fsync regression of
``atomic_write_bytes`` (a rename alone does not make the directory
entry durable).
"""

import json
import os
import stat
import threading

import pytest

from repro.core.attack_types import AttackType
from repro.core.strategies import ContextAwareStrategy, RandomStartStrategy
from repro.injection.engine import SimulationConfig, run_simulation
from repro.resilience.checkpoint import atomic_write_bytes, fsync_directory
from repro.service.cache import RunCache, partition_tasks
from repro.telemetry import Telemetry, TelemetryConfig

EPOCH = "cache-test-epoch"


def _task(seed=42, **overrides):
    values = dict(
        scenario="S1",
        initial_distance=70.0,
        seed=seed,
        attack_type=AttackType.DECELERATION,
        max_steps=200,
    )
    values.update(overrides)
    return SimulationConfig(**values), ContextAwareStrategy()


def _result(config, strategy):
    return run_simulation(config, strategy)


class TestHitMiss:
    def test_miss_then_hit_round_trips_bit_exactly(self, tmp_path):
        cache = RunCache(str(tmp_path), code_epoch=EPOCH)
        config, strategy = _task()
        key = cache.fingerprint(config, strategy)
        assert cache.get(key) is None
        result = _result(config, strategy)
        cache.put(key, result)
        cached = cache.get(key)
        assert cached is not None
        assert cached.to_dict() == result.to_dict()
        assert (cache.stats.misses, cache.stats.hits, cache.stats.writes) == (1, 1, 1)

    def test_distinct_tasks_use_distinct_blobs(self, tmp_path):
        cache = RunCache(str(tmp_path), code_epoch=EPOCH)
        keys = {cache.fingerprint(*_task(seed=seed)) for seed in range(5)}
        assert len(keys) == 5

    def test_unregistered_strategy_bypasses(self, tmp_path):
        class Custom(RandomStartStrategy):
            pass

        cache = RunCache(str(tmp_path), code_epoch=EPOCH)
        config, _ = _task()
        assert cache.fingerprint(config, Custom()) is None
        assert cache.stats.bypasses == 1

    def test_telemetry_counters_track_traffic(self, tmp_path):
        telemetry = Telemetry(TelemetryConfig())
        cache = RunCache(str(tmp_path), code_epoch=EPOCH).with_telemetry(telemetry)
        config, strategy = _task()
        key = cache.fingerprint(config, strategy)
        cache.get(key)
        cache.put(key, _result(config, strategy))
        cache.get(key)
        counters = telemetry.snapshot()["counters"]
        assert counters["cache.misses"] == 1
        assert counters["cache.hits"] == 1
        assert counters["cache.writes"] == 1

    def test_code_epoch_namespaces_the_cache(self, tmp_path):
        config, strategy = _task()
        a = RunCache(str(tmp_path), code_epoch="epoch-a")
        b = RunCache(str(tmp_path), code_epoch="epoch-b")
        key_a = a.fingerprint(config, strategy)
        a.put(key_a, _result(config, strategy))
        assert b.get(b.fingerprint(config, strategy)) is None


class TestEventAccounting:
    def test_each_event_lands_once_in_stats_counters_and_journal(self, tmp_path):
        class Journal:
            def __init__(self):
                self.events = []

            def emit(self, kind, level="info", **fields):
                self.events.append((kind, level))

        class Custom(RandomStartStrategy):
            pass

        journal = Journal()
        telemetry = Telemetry(TelemetryConfig(), journal=journal)
        cache = RunCache(str(tmp_path), max_entries=1, code_epoch=EPOCH).with_telemetry(telemetry)
        config, strategy = _task()
        assert cache.fingerprint(config, Custom()) is None  # bypass
        key = cache.fingerprint(config, strategy)
        result = _result(config, strategy)
        assert cache.get(key) is None  # miss
        cache.put(key, result)  # write
        assert cache.get(key) is not None  # hit
        with open(cache._blob_path(key), "wb") as handle:
            handle.write(b"rot")
        assert cache.get(key) is None  # corruption, then miss
        cache.put(key, result)  # write
        cache.put(cache.fingerprint(*_task(seed=7)), result)  # write, evict

        assert cache.stats.as_dict() == {
            "hits": 1,
            "misses": 2,
            "bypasses": 1,
            "corruptions": 1,
            "writes": 3,
            "evictions": 1,
            "hit_rate": 0.25,
        }
        counters = telemetry.snapshot()["counters"]
        assert {name: n for name, n in counters.items() if name.startswith("cache.")} == {
            "cache.hits": 1,
            "cache.misses": 2,
            "cache.bypasses": 1,
            "cache.bypass.fingerprint_unavailable": 1,
            "cache.corruptions": 1,
            "cache.writes": 3,
            "cache.evictions": 1,
        }
        assert journal.events == [
            ("cache.bypass", "warning"),
            ("cache.miss", "info"),
            ("cache.write", "info"),
            ("cache.hit", "info"),
            ("cache.corruption", "warning"),
            ("cache.miss", "info"),
            ("cache.write", "info"),
            ("cache.write", "info"),
            ("cache.evict", "info"),
        ]


class TestCorruption:
    def _populated(self, tmp_path):
        cache = RunCache(str(tmp_path), code_epoch=EPOCH)
        config, strategy = _task()
        key = cache.fingerprint(config, strategy)
        cache.put(key, _result(config, strategy))
        return cache, key, cache._blob_path(key)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda raw: b"not json at all",
            lambda raw: raw[: len(raw) // 2],                       # truncated
            lambda raw: raw.replace(b'"payload"', b'"payloax"'),    # bad envelope
        ],
        ids=["garbage", "truncated", "missing-field"],
    )
    def test_corrupt_blob_is_quarantined_and_recomputed(self, tmp_path, corrupt):
        cache, key, path = self._populated(tmp_path)
        with open(path, "rb") as handle:
            raw = handle.read()
        with open(path, "wb") as handle:
            handle.write(corrupt(raw))
        assert cache.get(key) is None              # detected → miss
        assert cache.stats.corruptions == 1
        assert not os.path.exists(path)            # quarantined
        config, strategy = _task()
        cache.put(key, _result(config, strategy))  # recompute repairs it
        assert cache.get(key) is not None

    def test_payload_bitrot_fails_the_integrity_hash(self, tmp_path):
        cache, key, path = self._populated(tmp_path)
        with open(path) as handle:
            envelope = json.load(handle)
        payload = bytearray(bytes.fromhex(envelope["payload"]))
        payload[len(payload) // 2] ^= 0xFF
        envelope["payload"] = bytes(payload).hex()
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        assert cache.get(key) is None
        assert cache.stats.corruptions == 1

    def test_blob_stored_under_the_wrong_key_is_rejected(self, tmp_path):
        cache, key, path = self._populated(tmp_path)
        other_key = cache.fingerprint(*_task(seed=43))
        other_path = cache._blob_path(other_key)
        os.makedirs(os.path.dirname(other_path), exist_ok=True)
        os.rename(path, other_path)
        assert cache.get(other_key) is None
        assert cache.stats.corruptions == 1


class TestEviction:
    def test_lru_cap_evicts_least_recently_used(self, tmp_path):
        cache = RunCache(str(tmp_path), max_entries=2, code_epoch=EPOCH)
        tasks = [_task(seed=seed) for seed in (1, 2, 3)]
        keys = [cache.fingerprint(config, strategy) for config, strategy in tasks]
        results = [_result(config, strategy) for config, strategy in tasks]
        cache.put(keys[0], results[0])
        cache.put(keys[1], results[1])
        # Pin explicit mtimes so the LRU order is unambiguous, then touch
        # key 0 via a hit — key 1 becomes the eviction victim.
        os.utime(cache._blob_path(keys[0]), (1_000, 1_000))
        os.utime(cache._blob_path(keys[1]), (2_000, 2_000))
        assert cache.get(keys[0]) is not None
        cache.put(keys[2], results[2])
        assert cache.stats.evictions == 1
        assert cache.get(keys[1]) is None          # evicted
        assert cache.get(keys[0]) is not None      # kept (recently used)
        assert cache.get(keys[2]) is not None      # kept (just written)
        assert len(cache) == 2

    def test_no_cap_means_no_eviction(self, tmp_path):
        cache = RunCache(str(tmp_path), code_epoch=EPOCH)
        for seed in range(4):
            config, strategy = _task(seed=seed)
            cache.put(cache.fingerprint(config, strategy), _result(config, strategy))
        assert cache.stats.evictions == 0
        assert len(cache) == 4

    def test_invalid_cap_is_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RunCache(str(tmp_path), max_entries=0)


class TestConcurrency:
    def test_concurrent_writers_on_the_same_key_never_tear(self, tmp_path):
        cache = RunCache(str(tmp_path), code_epoch=EPOCH)
        config, strategy = _task()
        key = cache.fingerprint(config, strategy)
        result = _result(config, strategy)
        errors = []

        def writer():
            try:
                for _ in range(10):
                    cache.put(key, result)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        cached = cache.get(key)
        assert cached is not None and cached.to_dict() == result.to_dict()
        # No stray temp files left behind by the racing writers.
        blob_dir = os.path.dirname(cache._blob_path(key))
        assert [n for n in os.listdir(blob_dir) if n.endswith(".tmp")] == []


class TestTaskHelpers:
    def test_partition_and_cached_dispatch_round_trip(self, tmp_path, monkeypatch):
        from repro.injection.executor import run_simulations
        from repro.resilience import supervisor

        cache = RunCache(str(tmp_path), code_epoch=EPOCH)
        tasks = [_task(seed=seed) for seed in (1, 2, 3)]
        direct = [_result(config, strategy) for config, strategy in tasks]

        calls = []

        def run_chunk(entries, *args):
            calls.append(len(entries))
            return [(index, _result(*task)) for index, task in entries], None

        monkeypatch.setattr(supervisor, "_run_chunk", run_chunk)
        cold = run_simulations(tasks, cache=cache, chunk_size=3)
        assert [r.to_dict() for r in cold] == [r.to_dict() for r in direct]
        assert calls == [3]
        warm = run_simulations(tasks, cache=cache, chunk_size=3)
        assert [r.to_dict() for r in warm] == [r.to_dict() for r in direct]
        assert calls == [3]  # nothing new simulated
        cached, pending, keys = partition_tasks(tasks, cache)
        assert len(cached) == 3 and pending == [] and all(keys)


class TestAtomicWriteDurability:
    """Regression: the rename must be followed by a directory fsync."""

    def test_directory_is_fsynced_after_the_rename(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def spy(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        atomic_write_bytes(str(tmp_path / "out.bin"), b"payload")
        assert synced[-1] is True, "no directory fsync after the rename"
        assert True in synced and False in synced  # file and directory both

    def test_platforms_rejecting_directory_fds_fall_back_to_noop(
        self, tmp_path, monkeypatch
    ):
        real_open = os.open

        def refusing_open(path, flags, *args, **kwargs):
            if os.path.isdir(path):
                raise OSError("directory fds not supported")
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", refusing_open)
        fsync_directory(str(tmp_path / "anything"))  # must not raise
        target = tmp_path / "out.bin"
        atomic_write_bytes(str(target), b"payload")  # full path still works
        assert target.read_bytes() == b"payload"

    def test_fsync_failure_on_the_directory_is_swallowed(self, tmp_path, monkeypatch):
        real_fsync = os.fsync

        def failing_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError("EINVAL")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_fsync)
        target = tmp_path / "out.bin"
        atomic_write_bytes(str(target), b"payload")
        assert target.read_bytes() == b"payload"
