"""Fault tolerance for campaign-shaped work.

A system whose subject is fault injection should itself tolerate faults.
This package holds the execution layer's one task loop and what makes it
survive a hung, crashed or lying worker process:

* :mod:`repro.resilience.supervisor` — :class:`SupervisedExecutor`, the
  loop every dispatch runs through (run cache, chunking, pool, payload
  validation, ordered accept), and the recovery a
  :class:`SupervisionPolicy` buys: per-chunk wall-clock timeouts,
  bounded seeded retry/backoff, dead-worker detection with pool
  respawn, poison-task quarantine (bisection down to the offending
  task), and graceful degradation (parallel → sequential, batched →
  scalar) with bit-identical results.  Without a policy the first
  failure raises.  Fresh results reach the run cache as their chunks
  are accepted, so an interrupted dispatch resumes by rerunning it on
  the same cache directory;
* :mod:`repro.resilience.checkpoint` — the crash-safe write helpers
  (atomic write-rename plus fsyncs) the cache, journal and recorder use;
* :mod:`repro.resilience.chaos` — a deterministic fault-injection
  harness (seeded :class:`ChaosPolicy`) that makes workers crash, hang
  or corrupt their results at chosen task indices, used by the chaos
  suite to prove every recovery path;
* :mod:`repro.resilience.errors` — task fingerprints and the
  :class:`TaskExecutionError` that carries them across the pool
  boundary.
"""

from repro.resilience.chaos import ChaosError, ChaosPolicy, FaultSpec, chaos_policy
from repro.resilience.checkpoint import atomic_write_bytes, atomic_write_json, fsync_directory
from repro.resilience.errors import TaskExecutionError, task_fingerprint
from repro.resilience.supervisor import (
    ExecutionReport,
    QuarantinedTask,
    QuarantineReport,
    SupervisedExecutor,
    SupervisedOutcome,
    SupervisionPolicy,
    run_supervised_simulations,
)

__all__ = [
    "atomic_write_bytes",
    "atomic_write_json",
    "fsync_directory",
    "chaos_policy",
    "ChaosError",
    "ChaosPolicy",
    "ExecutionReport",
    "FaultSpec",
    "QuarantinedTask",
    "QuarantineReport",
    "run_supervised_simulations",
    "SupervisedExecutor",
    "SupervisedOutcome",
    "SupervisionPolicy",
    "task_fingerprint",
    "TaskExecutionError",
]
