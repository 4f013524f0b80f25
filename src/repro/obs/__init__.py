"""Observability: per-run flight recorder, causal event journal, post-mortem.

``repro.telemetry`` answers *how fast / how many*; this package answers
*what happened in run X, in which job, after which retry*:

* :mod:`repro.obs.tap` — a deterministic-safe :class:`~repro.kernel.
  StepPipeline` tap (same contract as the telemetry probe: shared stage
  objects, no RNG / context writes) that observes the context once per
  completed cycle;
* :mod:`repro.obs.recorder` — the per-run **flight recorder**: a bounded
  ring buffer of the last N cycles (kinematics, plan/command values,
  injection activity, detector state) flushed to a compact JSON artifact
  when a run turns interesting (hazard, collision, alert, failure — or
  always, or on demand);
* :mod:`repro.obs.journal` — the append-only **causal event journal**:
  JSONL with service-wide monotonic sequence numbers and correlation
  fields (``job_id → chunk_id → fingerprint → attempt``) fed by the
  campaign service, the supervisor, the run cache and the search driver,
  durable by group commit (every event flushed, commit
  points such as a job's submission and result fsynced), with rotation
  and a crash-tolerant reader that can rebuild a job's state after
  process death;
* :mod:`repro.obs.query` — the post-mortem join of journal + flight
  records + telemetry snapshot (timelines, per-job causal summaries,
  hazard forensics), driven by ``scripts/obs_report.py``.
"""

from repro.obs.journal import (
    BoundJournal,
    EventJournal,
    JournalError,
    JobReplay,
    job_event_stream,
    read_journal,
    replay_jobs,
)
from repro.obs.query import (
    FlightRecord,
    hazard_view,
    iter_flight_records,
    job_summaries,
    load_flight_record,
    matches_trajectory_tail,
    run_events,
    timeline_lines,
)
from repro.obs.recorder import (
    FLIGHT_RECORD_VERSION,
    FLIGHT_SAMPLE_FIELDS,
    FlightRecorder,
    FlightRecorderConfig,
)
from repro.obs.tap import TappedPipeline

__all__ = [
    "BoundJournal",
    "EventJournal",
    "FLIGHT_RECORD_VERSION",
    "FLIGHT_SAMPLE_FIELDS",
    "FlightRecord",
    "FlightRecorder",
    "FlightRecorderConfig",
    "JobReplay",
    "JournalError",
    "TappedPipeline",
    "hazard_view",
    "iter_flight_records",
    "job_event_stream",
    "job_summaries",
    "load_flight_record",
    "matches_trajectory_tail",
    "read_journal",
    "replay_jobs",
    "run_events",
    "timeline_lines",
]
