"""Campaign-as-a-service: run cache + async job front-end.

The platform's serving layer, turning the one-shot in-process campaign
loop into reusable infrastructure:

* :mod:`repro.service.fingerprint` — canonical content-addressed task
  fingerprints (resolved scenario + config + strategy identity + seed +
  a code-epoch token derived from the golden-fixture hash, so kernel
  changes invalidate cleanly);
* :mod:`repro.service.cache` — the persistent :class:`RunCache`
  (sharded JSON/zlib blobs, atomic durable writes, integrity-verified
  reads with corruption quarantine-and-recompute, LRU cap, telemetry
  counters), consulted by the one task loop behind ``run_simulations``
  (and so by ``Campaign.run``, the table/figure experiments and the
  search driver) before any simulation is paid for, and written as
  chunks complete — rerunning interrupted work on the same cache
  directory is how it resumes;
* :mod:`repro.service.jobs` / :mod:`repro.service.service` — the
  asyncio :class:`CampaignService`: queued campaign/search jobs over
  that task loop via ``run_in_executor``, streaming progress events
  and partial results per job.
"""

from repro.service.cache import CacheStats, RunCache, partition_tasks
from repro.service.fingerprint import (
    CODE_EPOCH_ENV,
    FingerprintUnavailable,
    canonical_json,
    canonical_task,
    compute_code_epoch,
    default_code_epoch,
    fingerprint_task,
    register_strategy_fingerprint,
)
from repro.service.jobs import (
    CampaignJobSpec,
    Job,
    JobEvent,
    JobStatus,
    SearchJobSpec,
)
from repro.service.service import CampaignService

__all__ = [
    "CacheStats",
    "CampaignJobSpec",
    "CampaignService",
    "canonical_json",
    "canonical_task",
    "CODE_EPOCH_ENV",
    "compute_code_epoch",
    "default_code_epoch",
    "FingerprintUnavailable",
    "fingerprint_task",
    "Job",
    "JobEvent",
    "JobStatus",
    "partition_tasks",
    "register_strategy_fingerprint",
    "RunCache",
    "SearchJobSpec",
]
