"""The causal event journal: append-only, durable, correlated JSONL.

One :class:`EventJournal` serves a whole service process.  It is
attached to a telemetry handle (``Telemetry(journal=...)``), and every
event emitted through that handle — the campaign service's ``job.*``,
the supervisor's ``supervisor.*``, the run cache's ``cache.*`` and the
search driver's ``search.generation``, at the levels
:data:`repro.telemetry.EVENTS` gives them — appends one compact JSON
line, stamped with a journal-wide strictly monotonic sequence number
and the correlation fields bound on the handle or carried by the event
(``job_id`` → ``chunk_id`` → ``fingerprint`` → ``attempt``), so a
post-mortem can walk the exact causal chain of any run across layers.

Durability is a group commit.  Every event is written and flushed to
the operating system before :meth:`EventJournal.emit` returns, so a
killed process loses nothing.  Only *commit points* are also fsynced
before ``emit`` returns: ``job.queued`` (a submission is acknowledged),
``job.completed`` and ``job.failed`` (a job's result is acknowledged),
and every event above ``info`` level (cache bypasses and corruptions;
supervisor timeouts, respawns, degradations and quarantines — rare and
forensic).  After a machine crash the file therefore reaches at least
the last commit point; what a crash can lose is the info-level events
of unfinished jobs: progress, cache traffic, search generations and
supervisor retries and bisections.  The cache already holds
those jobs' finished runs (every blob write is atomic and fsynced), and
:func:`replay_jobs` reports the jobs as queued or running; rerunning
them on the same cache pays only for the runs the cache lacks.  Rotation
and :meth:`EventJournal.close` fsync as well, following
:mod:`repro.resilience.checkpoint`'s idioms: rotation is an atomic
``os.replace`` to ``<path>.1`` followed by a directory fsync.  The
reader tolerates exactly one torn *final* line (the crash case) —
corruption anywhere else raises :class:`JournalError` loudly.

The journal doubles as the first half of job persistence
(ROADMAP item 2): :func:`replay_jobs` folds the ``job.*`` events back
into per-job state, so killing the service process mid-job and replaying
the journal reconstructs exactly what the dead process had observed.
"""

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.resilience.checkpoint import fsync_directory

#: Bumped when the line layout changes; readers check it per line.
JOURNAL_VERSION = 1


class JournalError(Exception):
    """Raised on mid-file journal corruption (torn tails are tolerated)."""


class EventJournal:
    """Append-only JSONL event log with monotonic sequence numbers.

    Args:
        path: The journal file (created on first emit; parent directory
            is created too).  Rotation moves the full file to
            ``<path>.1`` (one rotated generation is kept).
        max_bytes: Rotate when the file reaches this size (``None``
            never rotates).

    Thread-safe: emitters on executor threads and the event loop share
    one lock, which is also what makes the sequence strictly monotonic
    service-wide.  The journal lives in the *parent* process only — it
    is never pickled to pool workers (worker-side facts reach it through
    the supervisor's parent-side accounting).
    """

    def __init__(self, path: str, max_bytes: Optional[int] = None):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.path = path
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._file = None
        # Continue the sequence across process restarts: a reopened
        # journal appends after the last durable seq, so "strictly
        # monotonic" holds for the file's whole life, not one process's.
        self._seq = _last_seq(path) + 1

    # ------------------------------------------------------------------

    def emit(self, kind: str, level: str = "info", **fields: Any) -> int:
        """Append and flush one event; returns its sequence number.

        A commit point (:func:`_is_commit_point`) is fsynced too before
        this returns.  ``None``-valued fields are dropped so emitters can
        pass optional correlation fields unconditionally.
        """
        record: Dict[str, Any] = {"v": JOURNAL_VERSION, "kind": kind, "level": level}
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        with self._lock:
            seq = self._seq
            self._seq = seq + 1
            record["seq"] = seq
            record["ts"] = time.time()
            line = json.dumps(record, sort_keys=True, separators=(",", ":"))
            handle = self._ensure_open()
            handle.write(line + "\n")
            handle.flush()
            if _is_commit_point(kind, level):
                os.fsync(handle.fileno())
            if self.max_bytes is not None and handle.tell() >= self.max_bytes:
                self._rotate_locked()
        return seq

    def close(self) -> None:
        """Flush, fsync and close the file (reopened on next emit)."""
        with self._lock:
            self._close_locked()

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _ensure_open(self):
        if self._file is None:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            self._file = open(self.path, "a", encoding="utf-8")
        return self._file

    def _close_locked(self) -> None:
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            self._file = None

    def _rotate_locked(self) -> None:
        self._close_locked()
        os.replace(self.path, self.path + ".1")
        fsync_directory(self.path)


# ----------------------------------------------------------------------
# reading & replay


def _last_seq(path: str) -> int:
    """The last committed sequence number across main + rotated file, or -1."""
    last = -1
    for candidate in (path + ".1", path):
        try:
            with open(candidate, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue  # torn tail from a crash mid-write
                    seq = record.get("seq")
                    if isinstance(seq, int) and seq > last:
                        last = seq
        except OSError:
            continue
    return last


def read_journal(path: str, include_rotated: bool = True) -> List[Dict[str, Any]]:
    """Read journal records in order (rotated generation first).

    A torn *final* line of the newest file is tolerated — that is
    exactly what a crash mid-write leaves behind.  An unparseable line
    anywhere else means real corruption and raises :class:`JournalError`.
    """
    files = []
    if include_rotated and os.path.exists(path + ".1"):
        files.append(path + ".1")
    if os.path.exists(path):
        files.append(path)
    records: List[Dict[str, Any]] = []
    for file_index, file_path in enumerate(files):
        with open(file_path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        for line_index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                is_final = (
                    file_index == len(files) - 1 and line_index == len(lines) - 1
                )
                if is_final:
                    break  # torn tail: the crash case, drop it silently
                raise JournalError(
                    f"corrupt journal line {line_index + 1} in {file_path}"
                ) from None
            records.append(record)
    return records


@dataclass
class JobReplay:
    """One job's state as reconstructed from its ``job.*`` events.

    Mirrors what a live :class:`~repro.service.jobs.Job` handle would
    show: status, progress counters, and the normalized event stream.
    """

    job_id: int
    status: str = "queued"
    completed: int = 0
    total: Optional[int] = None
    chunks: int = 0
    error: Optional[str] = None
    events: List[Dict[str, Any]] = field(default_factory=list)


#: Journal kinds carrying job lifecycle (the service mirrors its
#: JobEvent stream under a ``job.`` prefix).
_JOB_STATUS = {
    "job.queued": "queued",
    "job.started": "running",
    "job.completed": "completed",
    "job.failed": "failed",
}

#: Job events that acknowledge something to a client: a submission, or a
#: job's result.  With every event above ``info`` level these are the
#: journal's commit points, fsynced before ``emit`` returns.
_COMMIT_KINDS = frozenset(("job.queued", "job.completed", "job.failed"))


def _is_commit_point(kind: str, level: str) -> bool:
    return kind in _COMMIT_KINDS or level not in ("debug", "info")


def replay_jobs(records: Iterable[Dict[str, Any]]) -> Dict[int, JobReplay]:
    """Fold ``job.*`` events back into per-job state, keyed by job id."""
    jobs: Dict[int, JobReplay] = {}
    for record in records:
        kind = record.get("kind", "")
        if not kind.startswith("job."):
            continue
        job_id = record.get("job_id")
        if not isinstance(job_id, int):
            continue
        replay = jobs.get(job_id)
        if replay is None:
            replay = jobs[job_id] = JobReplay(job_id)
        replay.events.append(_normalize(record))
        if kind in _JOB_STATUS:
            replay.status = _JOB_STATUS[kind]
        if kind == "job.queued" and isinstance(record.get("total"), int):
            replay.total = record["total"]
        elif kind == "job.progress":
            replay.chunks += 1
            if isinstance(record.get("completed"), int):
                replay.completed = record["completed"]
            if isinstance(record.get("total"), int):
                replay.total = record["total"]
        elif kind == "job.completed":
            if replay.total is not None:
                replay.completed = replay.total
        elif kind == "job.failed":
            replay.error = record.get("error")
    return jobs


def job_event_stream(
    records: Iterable[Dict[str, Any]], job_id: int
) -> List[Dict[str, Any]]:
    """The job's normalized ``job.*`` event stream, in journal order
    (its :func:`replay_jobs` events).

    Normalization strips the fields that legitimately differ between two
    executions of the same work (sequence numbers, wall-clock stamps),
    so an interrupted run's stream can be compared event-for-event as a
    prefix of an uninterrupted run's stream.
    """
    replay = replay_jobs(records).get(job_id)
    return [] if replay is None else replay.events


def _normalize(record: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in record.items() if k not in ("seq", "ts")}
