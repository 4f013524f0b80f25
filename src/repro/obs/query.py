"""Post-mortem queries: join journal, flight records and telemetry.

This is the read side of :mod:`repro.obs` — pure functions over the
artifacts the write side produces, shared by tests and the
``scripts/obs_report.py`` CLI:

* :func:`load_flight_record` / :func:`iter_flight_records` parse the
  flight-record JSON artifacts into :class:`FlightRecord`;
* :func:`matches_trajectory_tail` pins the black-box contract — the
  record's kinematic tail equals the run's recorded trajectory
  bit-for-bit (both read the same post-actuate world state);
* :func:`timeline_lines`, :func:`job_summaries`, :func:`run_events` and
  :func:`hazard_view` render journal + flight records into the
  human-facing timelines, per-job causal summaries and hazard
  forensics.
"""

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.obs.recorder import FLIGHT_RECORD_VERSION


@dataclass
class FlightRecord:
    """One parsed flight-record artifact."""

    path: str
    meta: Dict[str, Any]
    fields: List[str]
    samples: List[List[Any]]

    @property
    def final_sample(self) -> Optional[Dict[str, Any]]:
        """The last captured cycle as a field → value mapping."""
        if not self.samples:
            return None
        return dict(zip(self.fields, self.samples[-1]))

    def column(self, name: str) -> List[Any]:
        """One field's values across all captured cycles."""
        index = self.fields.index(name)
        return [sample[index] for sample in self.samples]


def load_flight_record(path: str) -> FlightRecord:
    """Parse one flight-record artifact (raises on version mismatch)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    version = payload.get("version")
    if version != FLIGHT_RECORD_VERSION:
        raise ValueError(
            f"{path}: flight record version {version!r}, "
            f"expected {FLIGHT_RECORD_VERSION}"
        )
    samples = payload.pop("samples")
    fields = payload.pop("fields")
    return FlightRecord(path=path, meta=payload, fields=fields, samples=samples)


def iter_flight_records(directory: str) -> Iterator[FlightRecord]:
    """Parse every ``flight-*.json`` artifact in ``directory``, name order."""
    if not os.path.isdir(directory):
        return
    for name in sorted(os.listdir(directory)):
        if name.startswith("flight-") and name.endswith(".json"):
            yield load_flight_record(os.path.join(directory, name))


def matches_trajectory_tail(record: FlightRecord, trajectory: Sequence[Any]) -> bool:
    """True when the record's kinematic tail equals the trajectory's.

    Every trajectory sample whose timestamp falls inside the record's
    captured window must have a flight sample at the *same* timestamp
    with bit-identical ``(s, d, speed, steering_wheel_deg)``.  Both
    sides read the same post-actuate world state and JSON round-trips
    floats exactly, so this is an equality check, not a tolerance check.
    Vacuously-empty overlaps fail: a black box that recorded nothing of
    the trajectory's window does not "match" it.
    """
    if not record.samples or not trajectory:
        return False
    time_index = record.fields.index("time")
    kinematics = tuple(
        record.fields.index(name)
        for name in ("ego_s", "ego_d", "ego_speed", "ego_steering_deg")
    )
    keyed = {
        sample[time_index]: tuple(sample[i] for i in kinematics)
        for sample in record.samples
    }
    first_time = record.samples[0][time_index]
    compared = 0
    for point in trajectory:
        if point.time < first_time:
            continue
        expected = keyed.get(point.time)
        if expected is None:
            return False
        if expected != (point.s, point.d, point.speed, point.steering_wheel_deg):
            return False
        compared += 1
    return compared > 0


# ----------------------------------------------------------------------
# journal rendering


def timeline_lines(
    records: Iterable[Dict[str, Any]], job_id: Optional[int] = None
) -> List[str]:
    """One human-readable line per journal event, in journal order."""
    lines = []
    for record in records:
        if job_id is not None and record.get("job_id") != job_id:
            continue
        context = " ".join(
            f"{key}={record[key]}"
            for key in sorted(record)
            if key not in ("v", "kind", "level", "seq", "ts")
        )
        level = record.get("level", "info")
        marker = "!" if level != "info" else " "
        lines.append(
            "#{seq:<6}{marker} {kind:<28} {context}".format(
                seq=record.get("seq", "?"),
                marker=marker,
                kind=record.get("kind", "?"),
                context=context,
            ).rstrip()
        )
    return lines


def run_events(
    records: Iterable[Dict[str, Any]], fingerprint: str
) -> List[Dict[str, Any]]:
    """Every journal event correlated to one task fingerprint.

    Matches both exact fingerprints and prefixes (the CLI convenience:
    fingerprints are long hashes, a unique prefix is enough).
    """
    matched = []
    for record in records:
        value = record.get("fingerprint")
        if isinstance(value, str) and value.startswith(fingerprint):
            matched.append(record)
    return matched


def job_summaries(records: Iterable[Dict[str, Any]]) -> List[str]:
    """One causal summary line per job seen in the journal.

    Joins the ``job.*`` lifecycle with the correlated ``supervisor.*``,
    ``cache.*`` and ``search.*`` events that carried the same
    ``job_id``.
    """
    per_job: Dict[int, Dict[str, Any]] = {}
    for record in records:
        job_id = record.get("job_id")
        if not isinstance(job_id, int):
            continue
        stats = per_job.setdefault(
            job_id,
            {
                "status": "queued",
                "completed": 0,
                "total": None,
                "chunks": 0,
                "error": None,
                "counts": {},
                "quarantined": [],
            },
        )
        kind = record.get("kind", "")
        if kind == "job.queued":
            if isinstance(record.get("total"), int):
                stats["total"] = record["total"]
        elif kind == "job.started":
            stats["status"] = "running"
        elif kind == "job.progress":
            stats["chunks"] += 1
            if isinstance(record.get("completed"), int):
                stats["completed"] = record["completed"]
            if isinstance(record.get("total"), int):
                stats["total"] = record["total"]
        elif kind == "job.completed":
            stats["status"] = "completed"
            if stats["total"] is not None:
                stats["completed"] = stats["total"]
        elif kind == "job.failed":
            stats["status"] = "failed"
            stats["error"] = record.get("error")
        else:
            counts = stats["counts"]
            counts[kind] = counts.get(kind, 0) + 1
            if kind == "supervisor.quarantine":
                fingerprint = record.get("fingerprint")
                if fingerprint:
                    stats["quarantined"].append(fingerprint)
    lines = []
    for job_id in sorted(per_job):
        stats = per_job[job_id]
        parts = [f"job {job_id}: {stats['status']}"]
        if stats["total"] is not None:
            parts.append(f"{stats['completed']}/{stats['total']} runs")
        if stats["chunks"]:
            parts.append(f"{stats['chunks']} chunks")
        for kind, label in (
            ("supervisor.retry", "retries"),
            ("supervisor.timeout", "timeouts"),
            ("supervisor.respawn", "respawns"),
            ("supervisor.bisect", "bisections"),
            ("supervisor.quarantine", "quarantined"),
            ("cache.hit", "cache hits"),
            ("cache.miss", "cache misses"),
            ("cache.bypass", "cache bypasses"),
            ("search.generation", "generations"),
        ):
            count = stats["counts"].get(kind, 0)
            if count:
                parts.append(f"{count} {label}")
        if stats["quarantined"]:
            shown = ", ".join(fp[:12] for fp in stats["quarantined"])
            parts.append(f"quarantined fingerprints: {shown}")
        if stats["error"]:
            parts.append(f"error: {stats['error']}")
        lines.append("; ".join(parts))
    return lines


# ----------------------------------------------------------------------
# hazard forensics


def hazard_view(record: FlightRecord, final_cycles: int = 50) -> str:
    """Reconstruct the final seconds of one flight record as text.

    Shows the record's identity, the trigger, and the last
    ``final_cycles`` captured cycles with the detector-visible columns —
    the "what was the car doing just before the hazard" view.
    """
    meta = record.meta
    header = (
        "flight record {path}\n"
        "  scenario={scenario} attack={attack} strategy={strategy} "
        "seed={seed} trigger={trigger}\n"
        "  captured {count} of {cycles} cycles "
        "(capacity {capacity}, every {every})"
    ).format(
        path=os.path.basename(record.path),
        scenario=meta.get("scenario"),
        attack=meta.get("attack") or "none",
        strategy=meta.get("strategy"),
        seed=meta.get("seed"),
        trigger=meta.get("trigger"),
        count=len(record.samples),
        cycles=meta.get("cycles"),
        capacity=meta.get("capacity"),
        every=meta.get("capture_every"),
    )
    lines = [header, "", "    time    speed    d      gap     steer   haz col drv"]
    index = {name: i for i, name in enumerate(record.fields)}
    for sample in record.samples[-final_cycles:]:
        gap = sample[index["lead_gap"]]
        lines.append(
            "  {time:7.2f} {speed:7.2f} {d:6.2f} {gap:>7} {steer:7.1f}   "
            "{haz:>3} {col:>3} {drv:>3}".format(
                time=sample[index["time"]],
                speed=sample[index["ego_speed"]],
                d=sample[index["ego_d"]],
                gap="-" if gap is None else f"{gap:.1f}",
                steer=sample[index["ego_steering_deg"]],
                haz=sample[index["new_hazards"]],
                col="X" if sample[index["collision"]] else ".",
                drv="D" if sample[index["driver_engaged"]] else ".",
            )
        )
    return "\n".join(lines)
