"""Persistent content-addressed run cache.

The cache stores one zlib-compressed JSON blob per completed
:class:`~repro.analysis.metrics.RunResult`, addressed by the task
fingerprint of :mod:`repro.service.fingerprint`, in a sharded two-level
directory (``<root>/ab/cd/abcd….json.z``) so a million entries never
land in one directory.  Every write goes through the
write-temp/fsync/rename/dir-fsync path of
:func:`repro.resilience.checkpoint.atomic_write_bytes`, so concurrent
writers racing on the same key are safe (last rename wins, never a torn
blob) and a committed entry survives a crash.

Reads verify integrity end to end: the envelope carries the format
version, the fingerprint it was stored under, and a SHA-256 of the
compressed result payload.  A blob that fails any check — bit rot,
truncation, a foreign file — is **quarantined** (deleted, counted) and
reported as a miss, so the caller transparently recomputes and repairs
that entry.  An optional LRU cap bounds the cache by entry count,
evicting the least-recently-*used* blobs (hits refresh an entry's
mtime).

Hit/miss/bypass/corruption traffic is published through
``repro.telemetry`` counters (``cache.hits`` etc.) so a campaign's
telemetry snapshot shows exactly how much simulation work the cache
absorbed.  When a :class:`repro.obs.journal.EventJournal` is attached,
the same traffic is journaled as ``cache.*`` events correlated by task
fingerprint (bypasses journal the *reason* the fingerprint was
unavailable, at warning level).
"""

import copy
import hashlib
import json
import os
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.metrics import RunResult
from repro.core.strategies import AttackStrategy
from repro.injection.engine import SimulationConfig
from repro.resilience.checkpoint import atomic_write_bytes
from repro.service.fingerprint import (
    FingerprintUnavailable,
    default_code_epoch,
    fingerprint_task,
)
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.obs.journal import BoundJournal, EventJournal

#: Cache blob envelope version (bumped on incompatible changes).
RUN_CACHE_VERSION = 1

#: One executable simulation task, as used by the executor layer.
SimulationTask = Tuple[SimulationConfig, Optional[AttackStrategy]]


@dataclass
class CacheStats:
    """Counters for one :class:`RunCache` handle (process-local)."""

    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    corruptions: int = 0
    writes: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.bypasses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "corruptions": self.corruptions,
            "writes": self.writes,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class RunCache:
    """Content-addressed persistent store of completed simulation runs.

    Args:
        root: Cache directory (created on first write).
        max_entries: Optional LRU cap — after a write pushes the entry
            count above this, least-recently-used blobs are evicted
            until back at the cap.
        telemetry: Optional telemetry sink for ``cache.*`` counters.
        code_epoch: Cache-namespace token; defaults to the checkout's
            :func:`~repro.service.fingerprint.default_code_epoch`, so a
            kernel change (regenerated goldens) invalidates every entry.
        journal: Optional event journal; when given, every hit, miss,
            bypass, write, corruption quarantine and eviction emits a
            ``cache.*`` event correlated by fingerprint.
    """

    def __init__(
        self,
        root: str,
        max_entries: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        code_epoch: Optional[str] = None,
        journal: "Optional[EventJournal | BoundJournal]" = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.root = root
        self.max_entries = max_entries
        self.telemetry = telemetry
        self.code_epoch = code_epoch if code_epoch is not None else default_code_epoch()
        self.journal = journal
        self.stats = CacheStats()

    def with_journal(
        self, journal: "Optional[EventJournal | BoundJournal]"
    ) -> "RunCache":
        """This cache with its events sent to ``journal`` (``None``: as is).

        The view shares the store, the stats and the telemetry of this
        handle; only the journal differs.  The task loop takes one per
        dispatch, so a service chunk's or search job's bound journal
        stamps its ids on the cache's events without rebinding the
        handle that sibling threads share.
        """
        if journal is None:
            return self
        view = copy.copy(self)
        view.journal = journal
        return view

    # -- keys ----------------------------------------------------------------

    def fingerprint(self, config: SimulationConfig, strategy: Optional[AttackStrategy]) -> Optional[str]:
        """The cache key for one task, or ``None`` when it must bypass.

        Unknown strategy classes (or non-canonicalizable configs) cannot
        be safely addressed, so they are counted as bypasses and the
        caller runs them uncached.
        """
        try:
            return fingerprint_task(config, strategy, code_epoch=self.code_epoch)
        except FingerprintUnavailable as error:
            self.stats.bypasses += 1
            self._count("cache.bypasses")
            self._count("cache.bypass.fingerprint_unavailable")
            self._emit("cache.bypass", level="warning", reason=str(error))
            return None

    def _blob_path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key[2:4], f"{key}.json.z")

    # -- lookup --------------------------------------------------------------

    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key``, or ``None`` on miss.

        A corrupt blob (bad envelope, integrity-hash mismatch,
        undecodable payload) is quarantined — deleted and counted — and
        reported as a miss so the caller recomputes and repairs it.
        A hit refreshes the blob's mtime (the LRU clock).
        """
        path = self._blob_path(key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            self.stats.misses += 1
            self._count("cache.misses")
            self._emit("cache.miss", fingerprint=key)
            return None
        result = self._decode(key, raw)
        if result is None:
            self._quarantine(path, key)
            self.stats.misses += 1
            self._count("cache.misses")
            self._emit("cache.miss", fingerprint=key)
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        self.stats.hits += 1
        self._count("cache.hits")
        self._emit("cache.hit", fingerprint=key)
        return result

    def _decode(self, key: str, raw: bytes) -> Optional[RunResult]:
        try:
            envelope = json.loads(raw.decode())
            if envelope.get("version") != RUN_CACHE_VERSION:
                return None
            if envelope.get("fingerprint") != key:
                return None
            payload = bytes.fromhex(envelope["payload"])
            if hashlib.sha256(payload).hexdigest() != envelope["sha256"]:
                return None
            record = json.loads(zlib.decompress(payload).decode())
            return RunResult.from_dict(record)
        except (ValueError, KeyError, TypeError, zlib.error):
            return None

    def _quarantine(self, path: str, key: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass
        self.stats.corruptions += 1
        self._count("cache.corruptions")
        self._emit("cache.corruption", level="warning", fingerprint=key, path=path)

    # -- store ---------------------------------------------------------------

    def put(self, key: str, result: RunResult) -> None:
        """Store one completed run under its fingerprint (atomic, durable)."""
        payload = zlib.compress(
            json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":")).encode()
        )
        envelope = {
            "version": RUN_CACHE_VERSION,
            "fingerprint": key,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "payload": payload.hex(),
        }
        path = self._blob_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write_bytes(path, json.dumps(envelope, sort_keys=True).encode())
        self.stats.writes += 1
        self._count("cache.writes")
        self._emit("cache.write", fingerprint=key)
        if self.max_entries is not None:
            self._evict_to_cap()

    # -- maintenance ---------------------------------------------------------

    def _entries(self) -> List[Tuple[float, str]]:
        """Every blob as ``(mtime, path)`` (unsorted)."""
        entries: List[Tuple[float, str]] = []
        for directory, _, names in os.walk(self.root):
            for name in names:
                if not name.endswith(".json.z"):
                    continue
                path = os.path.join(directory, name)
                try:
                    entries.append((os.stat(path).st_mtime, path))
                except OSError:
                    continue
        return entries

    def _evict_to_cap(self) -> None:
        assert self.max_entries is not None
        entries = self._entries()
        if len(entries) <= self.max_entries:
            return
        entries.sort()  # oldest mtime (least recently used) first
        for _, path in entries[: len(entries) - self.max_entries]:
            try:
                os.remove(path)
            except OSError:
                continue
            self.stats.evictions += 1
            self._count("cache.evictions")
            self._emit(
                "cache.evict",
                fingerprint=os.path.basename(path)[: -len(".json.z")],
            )

    def __len__(self) -> int:
        return len(self._entries())

    def keys(self) -> Iterator[str]:
        for _, path in self._entries():
            yield os.path.basename(path)[: -len(".json.z")]

    def _count(self, name: str) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.counter(name).inc()

    def _emit(self, kind: str, level: str = "info", **fields) -> None:
        if self.journal is not None:
            self.journal.emit(kind, level=level, **fields)


def partition_tasks(
    tasks: Sequence[SimulationTask], cache: RunCache
) -> Tuple[Dict[int, RunResult], List[int], List[Optional[str]]]:
    """Split a task list into cached results and still-pending work.

    Returns ``(cached, pending_indices, keys)`` where ``cached`` maps
    task index to its cache hit, ``pending_indices`` lists the tasks
    that must actually run (misses and bypasses), and ``keys`` holds
    each task's fingerprint (``None`` for bypasses) so fresh results can
    be stored as they complete.  The task loop
    (:class:`repro.resilience.SupervisedExecutor`) is the one caller.
    """
    cached: Dict[int, RunResult] = {}
    pending: List[int] = []
    keys: List[Optional[str]] = []
    for index, (config, strategy) in enumerate(tasks):
        key = cache.fingerprint(config, strategy)
        keys.append(key)
        if key is not None:
            hit = cache.get(key)
            if hit is not None:
                cached[index] = hit
                continue
        pending.append(index)
    return cached, pending, keys
