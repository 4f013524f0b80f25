"""Unit tests for the causal event journal (:mod:`repro.obs.journal`)."""

import os
import threading

import pytest

from repro.obs.journal import (
    EventJournal,
    JournalError,
    job_event_stream,
    read_journal,
    replay_jobs,
)
from repro.obs.query import job_summaries, timeline_lines


class TestEmit:
    def test_sequences_are_strictly_monotonic(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with EventJournal(path) as journal:
            seqs = [journal.emit("test.event", index=i) for i in range(20)]
        assert seqs == list(range(20))
        records = read_journal(path)
        assert [r["seq"] for r in records] == seqs

    def test_none_fields_are_dropped(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with EventJournal(path) as journal:
            journal.emit("test.event", kept=1, dropped=None)
        (record,) = read_journal(path)
        assert record["kept"] == 1 and "dropped" not in record

    def test_reopen_continues_the_sequence(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with EventJournal(path) as journal:
            journal.emit("test.one")
            journal.emit("test.two")
        with EventJournal(path) as journal:
            seq = journal.emit("test.three")
        assert seq == 2
        assert [r["seq"] for r in read_journal(path)] == [0, 1, 2]

    def test_concurrent_emitters_never_collide(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = EventJournal(path)

        def hammer(worker):
            for i in range(50):
                journal.emit("test.event", worker=worker, index=i)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        journal.close()
        seqs = [r["seq"] for r in read_journal(path)]
        assert seqs == sorted(seqs) == list(range(200))

    def test_invalid_settings_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            EventJournal(str(tmp_path / "j"), max_bytes=0)


class TestBind:
    def test_bound_fields_stamp_every_event_and_compose(self, tmp_path):
        from repro.telemetry import Telemetry

        path = str(tmp_path / "journal.jsonl")
        with EventJournal(path) as journal:
            chunk = Telemetry(journal=journal).bind(job_id=3).bind(chunk_id=1)
            chunk.emit("cache.hit", fingerprint="a")
            chunk.emit("cache.hit", fingerprint="b", chunk_id=9)  # explicit field wins
        first, second = read_journal(path)
        assert first["job_id"] == 3 and first["chunk_id"] == 1
        assert second["job_id"] == 3 and second["chunk_id"] == 9


class TestDurability:
    def test_rotation_keeps_a_contiguous_recent_suffix(self, tmp_path):
        """One rotated generation is kept: rotated + live read as a
        contiguous, in-order suffix ending at the newest event."""
        path = str(tmp_path / "journal.jsonl")
        with EventJournal(path, max_bytes=256) as journal:
            for i in range(20):
                journal.emit("test.event", index=i)
        assert os.path.exists(path + ".1")
        indices = [r["index"] for r in read_journal(path)]
        assert indices == list(range(indices[0], 20))
        assert indices[-1] == 19

    def test_reopen_after_rotation_continues_sequence(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with EventJournal(path, max_bytes=128) as journal:
            for i in range(10):
                journal.emit("test.event", index=i)
        with EventJournal(path) as journal:
            assert journal.emit("test.event") == 10

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with EventJournal(path) as journal:
            journal.emit("test.one")
            journal.emit("test.two")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v":1,"kind":"test.torn","se')  # crash mid-write
        records = read_journal(path)
        assert [r["kind"] for r in records] == ["test.one", "test.two"]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with EventJournal(path) as journal:
            journal.emit("test.one")
            journal.emit("test.two")
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[0] = "garbage not json"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(JournalError):
            read_journal(path)


def _fsync_spy(monkeypatch, path):
    """Record the kind of the journal's last line at every fsync of it."""
    real_fsync = os.fsync
    synced = []

    def spy(fd):
        if os.path.exists(path) and os.fstat(fd).st_ino == os.stat(path).st_ino:
            synced.append(read_journal(path)[-1]["kind"])
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    return synced


def _emit_then_die(path, count):
    journal = EventJournal(path)
    for index in range(count):
        journal.emit("test.event", index=index)
    os._exit(1)  # no close, no interpreter shutdown: a killed process


class TestGroupCommit:
    """Every event is flushed; only commit points (and close) are fsynced."""

    def test_service_job_fsyncs_at_queued_completed_and_close_only(
        self, tmp_path, monkeypatch
    ):
        import asyncio

        from repro.core.attack_types import AttackType
        from repro.injection.campaign import CampaignConfig
        from repro.service import CampaignJobSpec, CampaignService, RunCache

        path = str(tmp_path / "journal.jsonl")
        synced = _fsync_spy(monkeypatch, path)
        journal = EventJournal(path)
        cache = RunCache(str(tmp_path / "cache"), code_epoch="group-commit-test")
        service = CampaignService(cache=cache, journal=journal)
        grid = CampaignConfig(
            strategy_name="Context-Aware",
            scenarios=("S1",),
            initial_distances=(60.0,),
            attack_types=(AttackType.DECELERATION,),
            repetitions=4,
            max_steps=150,
        )

        async def one_job():
            await service.start()
            job = await service.submit(CampaignJobSpec(config=grid, chunk_runs=1))
            await service.result(job)
            await service.stop()

        asyncio.run(one_job())
        kinds = [r["kind"] for r in read_journal(path)]
        assert kinds.count("job.progress") == 4 and kinds.count("cache.write") == 4
        assert synced == ["job.queued", "job.completed"]
        journal.close()
        assert synced == ["job.queued", "job.completed", "job.completed"]

    def test_events_above_info_are_fsynced(self, tmp_path, monkeypatch):
        path = str(tmp_path / "journal.jsonl")
        synced = _fsync_spy(monkeypatch, path)
        journal = EventJournal(path)
        journal.emit("test.progress")
        journal.emit("supervisor.retry", level="warning")
        journal.emit("test.progress")
        assert synced == ["supervisor.retry"]
        journal.close()

    def test_killed_process_loses_no_event(self, tmp_path):
        import multiprocessing

        path = str(tmp_path / "journal.jsonl")
        child = multiprocessing.get_context("fork").Process(
            target=_emit_then_die, args=(path, 40)
        )
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 1
        assert [r["index"] for r in read_journal(path)] == list(range(40))


class TestReplay:
    def _write(self, path, events):
        with EventJournal(path) as journal:
            for kind, fields in events:
                journal.emit(kind, **fields)

    def test_completed_job_replays_to_final_state(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        self._write(
            path,
            [
                ("job.queued", {"job_id": 0, "total": 4}),
                ("job.started", {"job_id": 0}),
                ("job.progress", {"job_id": 0, "completed": 2, "total": 4}),
                ("job.progress", {"job_id": 0, "completed": 4, "total": 4}),
                ("job.completed", {"job_id": 0}),
            ],
        )
        replay = replay_jobs(read_journal(path))[0]
        assert replay.status == "completed"
        assert (replay.completed, replay.total, replay.chunks) == (4, 4, 2)

    def test_interrupted_job_replays_to_in_flight_state(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        self._write(
            path,
            [
                ("job.queued", {"job_id": 1, "total": 6}),
                ("job.started", {"job_id": 1}),
                ("job.progress", {"job_id": 1, "completed": 2, "total": 6}),
            ],
        )
        replay = replay_jobs(read_journal(path))[1]
        assert replay.status == "running"
        assert (replay.completed, replay.total) == (2, 6)

    def test_failed_job_keeps_its_error(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        self._write(
            path,
            [
                ("job.queued", {"job_id": 0, "total": 2}),
                ("job.started", {"job_id": 0}),
                ("job.failed", {"job_id": 0, "error": "boom"}),
            ],
        )
        replay = replay_jobs(read_journal(path))[0]
        assert replay.status == "failed" and replay.error == "boom"

    def test_job_event_stream_strips_nondeterministic_fields(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        self._write(
            path,
            [
                ("job.queued", {"job_id": 0, "total": 2}),
                ("supervisor.retry", {"job_id": 0, "attempt": 1}),
                ("job.queued", {"job_id": 1, "total": 2}),
            ],
        )
        stream = job_event_stream(read_journal(path), job_id=0)
        assert len(stream) == 1  # only job.* of job 0
        assert "seq" not in stream[0] and "ts" not in stream[0]


class TestViews:
    def test_timeline_flags_non_info_levels(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with EventJournal(path) as journal:
            journal.emit("job.queued", job_id=0, total=2)
            journal.emit("supervisor.quarantine", level="warning", task=3)
        lines = timeline_lines(read_journal(path))
        assert len(lines) == 2
        assert "job.queued" in lines[0] and "!" not in lines[0]
        assert "supervisor.quarantine" in lines[1] and "!" in lines[1]

    def test_job_summaries_fold_lifecycle_and_correlated_only_jobs(self):
        """Lifecycle, correlated counts, a job seen only in correlated
        events and non-integer ids, line for line."""
        records = [
            {"kind": "supervisor.retry", "job_id": 7, "attempt": 1},
            {"kind": "supervisor.quarantine", "job_id": 7, "fingerprint": "abcdefabcdefabcdef"},
            {"kind": "supervisor.quarantine", "job_id": 7},
            {"kind": "job.queued", "job_id": 2},
            {"kind": "job.started", "job_id": 2},
            {"kind": "job.progress", "job_id": 2, "completed": 3},
            {"kind": "job.progress", "job_id": 2, "completed": 5, "total": 9},
            {"kind": "cache.hit", "job_id": 2, "fingerprint": "x"},
            {"kind": "cache.miss", "job_id": "2"},
            {"kind": "job.failed", "job_id": 2, "error": "boom"},
            {"kind": "job.queued", "job_id": 1, "total": 4},
            {"kind": "job.custom", "job_id": 1},
            {"kind": "job.completed", "job_id": 1},
            {"kind": "search.generation", "job_id": 1},
            {"kind": "cache.bypass", "job_id": 3},
            {"kind": "supervisor.timeout", "job_id": 3},
            {"kind": "supervisor.respawn", "job_id": 3},
            {"kind": "supervisor.bisect", "job_id": 3},
            {"job_id": 4},
        ]
        assert job_summaries(records) == [
            "job 1: completed; 4/4 runs; 1 generations",
            "job 2: failed; 5/9 runs; 2 chunks; 1 cache hits; error: boom",
            "job 3: queued; 1 timeouts; 1 respawns; 1 bisections; 1 cache bypasses",
            "job 4: queued",
            "job 7: queued; 1 retries; 2 quarantined; quarantined fingerprints: abcdefabcdef",
        ]

    def test_job_summaries_list_every_quarantined_fingerprint(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        fingerprints = [f"scenario=S1 seed={i}" for i in range(6)]
        with EventJournal(path) as journal:
            journal.emit("job.queued", job_id=0, total=6)
            journal.emit("job.started", job_id=0)
            for fp in fingerprints:
                journal.emit(
                    "supervisor.quarantine", level="warning", job_id=0, fingerprint=fp
                )
            journal.emit("job.completed", job_id=0)
        (line,) = job_summaries(read_journal(path))
        assert "6 quarantined" in line
        for fp in fingerprints:
            assert fp[:12] in line  # no truncation of the list itself
