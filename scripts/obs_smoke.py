"""CI obs-smoke gate: journal replay, flight-record forensics, chaos events.

Four checks over the observability layer, at smoke scale:

1. **kill & replay** — a child process runs a service job and hard-kills
   itself (``os._exit``) mid-job; the parent replays the child's journal
   and requires it to be an event-for-event prefix of an uninterrupted
   run of the same job, with :func:`replay_jobs` reconstructing the
   in-flight state (status ``running``, exact completed-run count);
2. **hazard forensics** — a hazardous mini-campaign with the flight
   recorder on: every hazardous run must leave a parseable flight
   record whose final sample matches the run's recorded trajectory tail
   bit for bit;
3. **chaos correlation** — a supervised campaign under injected worker
   faults must journal the recovery trail (``supervisor.retry`` /
   ``supervisor.respawn``) with the caller's bound correlation id on
   every record, and the handle's ``supervisor.retries`` /
   ``supervisor.pool_respawns`` counters must equal those line counts;
4. **post-mortem CLI** — ``obs_report`` must render the timeline, job
   summary and hazard views of the artifacts produced above.

Exits non-zero (assertion) on any violation.  Usage::

    PYTHONPATH=src python scripts/obs_smoke.py [--out-dir DIR]
"""

import argparse
import asyncio
import os
import subprocess
import sys
from collections import Counter

from repro.core.attack_types import AttackType
from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.engine import SimulationConfig, run_simulation
from repro.obs.journal import EventJournal, job_event_stream, read_journal, replay_jobs
from repro.obs.query import (
    iter_flight_records,
    load_flight_record,
    matches_trajectory_tail,
)
from repro.obs.recorder import FlightRecorderConfig
from repro.resilience.chaos import ChaosPolicy, FaultSpec
from repro.resilience.supervisor import SupervisionPolicy, run_supervised_simulations
from repro.service import CampaignService, CampaignJobSpec
from repro.telemetry import Telemetry

import obs_report

#: The service job both the uninterrupted and the killed run execute.
_SERVICE_GRID = CampaignConfig(
    scenarios=("S1",),
    initial_distances=(60.0,),
    attack_types=(AttackType.DECELERATION,),
    repetitions=6,
    max_steps=150,
)
_CHUNK_RUNS = 2


async def _service_job(journal_path: str, kill_after_progress: bool) -> None:
    """Run the smoke job through a journaled service, optionally dying mid-job."""
    journal = EventJournal(journal_path)
    service = CampaignService(concurrency=1, journal=journal)
    await service.start()
    job = await service.submit(CampaignJobSpec(config=_SERVICE_GRID, chunk_runs=_CHUNK_RUNS))
    async for event in service.events(job):
        if kill_after_progress and event.kind == "progress":
            # Simulated process death: no journal.close(), no service.stop(),
            # nothing written beyond the flush every emit already paid.
            os._exit(1)
    await service.result(job)
    await service.stop()
    journal.close()


def check_kill_and_replay(out_dir: str) -> None:
    baseline_path = os.path.join(out_dir, "journal-uninterrupted.jsonl")
    killed_path = os.path.join(out_dir, "journal-killed.jsonl")

    asyncio.run(_service_job(baseline_path, kill_after_progress=False))

    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child-kill", killed_path],
        cwd=os.path.dirname(os.path.abspath(__file__)),
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")]
            + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )},
        timeout=600,
    )
    assert child.returncode == 1, f"child should die mid-job, exited {child.returncode}"

    baseline = job_event_stream(read_journal(baseline_path), job_id=0)
    killed = job_event_stream(read_journal(killed_path), job_id=0)
    assert len(killed) >= 3, f"killed journal too short to be mid-job: {killed}"
    assert len(killed) < len(baseline), "child did not die before job completion"
    assert killed == baseline[: len(killed)], (
        "killed journal is not an event-for-event prefix of the uninterrupted run:\n"
        f"killed:   {killed}\nbaseline: {baseline[: len(killed)]}"
    )

    replay = replay_jobs(read_journal(killed_path))[0]
    completed = killed[-1].get("completed", 0)
    assert replay.status == "running", f"replayed status {replay.status!r} != 'running'"
    assert replay.completed == completed and replay.total == _SERVICE_GRID.total_runs, (
        f"replay lost progress: {replay}"
    )
    print(
        f"kill & replay OK: died after {len(killed)}/{len(baseline)} events, "
        f"replayed to status=running {replay.completed}/{replay.total} runs"
    )


def check_hazard_forensics(out_dir: str) -> None:
    flight_dir = os.path.join(out_dir, "flight")
    recorder = FlightRecorderConfig(output_dir=flight_dir, capacity=200)
    hazardous = 0
    for seed in range(6):
        config = SimulationConfig(
            scenario="S2",
            initial_distance=40.0,
            seed=seed,
            attack_type=AttackType.DECELERATION,
            record_trajectory=True,
        )
        from repro.core.strategies import strategy_by_name

        result = run_simulation(config, strategy_by_name("Context-Aware"), recorder=recorder)
        if not (result.hazards or result.accidents or result.alerts):
            continue
        hazardous += 1
        records = [
            r for r in iter_flight_records(flight_dir) if r.meta.get("seed") == seed
        ]
        assert records, f"hazardous run seed={seed} left no flight record"
        record = load_flight_record(records[-1].path)  # full parse round-trip
        assert matches_trajectory_tail(record, result.trajectory), (
            f"flight record {record.path} does not match the trajectory tail bit-for-bit"
        )
    assert hazardous > 0, "smoke grid produced no hazardous runs to check"
    print(f"hazard forensics OK: {hazardous} hazardous runs, every black box matches its trajectory tail")


def check_chaos_correlation(out_dir: str) -> None:
    journal_path = os.path.join(out_dir, "journal-chaos.jsonl")
    journal = EventJournal(journal_path)
    campaign = Campaign(
        CampaignConfig(
            scenarios=("S1",),
            initial_distances=(60.0,),
            attack_types=(AttackType.DECELERATION,),
            repetitions=6,
            max_steps=100,
        )
    )
    chaos = ChaosPolicy(
        faults=(
            FaultSpec(kind="error", task_index=1, times=1),
            FaultSpec(kind="crash", task_index=3, times=1),
        ),
        state_dir=os.path.join(out_dir, "chaos-state"),
        seed=7,
    )
    telemetry = Telemetry(journal=journal)
    outcome = run_supervised_simulations(
        campaign.tasks(),
        policy=SupervisionPolicy(max_chunk_attempts=3, backoff_base=0.0),
        workers=2,
        chunk_size=2,
        chaos=chaos,
        telemetry=telemetry.bind(job_id=0),
    )
    journal.close()
    records = read_journal(journal_path)
    kinds = Counter(record["kind"] for record in records)
    assert len(outcome.completed_results) == 6, f"chaos run lost results: {outcome.report}"
    assert kinds["supervisor.retry"] == outcome.report.retries > 0, (
        f"retries not journaled: {kinds} vs report {outcome.report.retries}"
    )
    assert kinds["supervisor.respawn"] == outcome.report.pool_respawns > 0, (
        f"respawns not journaled: {kinds} vs report {outcome.report.pool_respawns}"
    )
    assert all(record.get("job_id") == 0 for record in records), (
        "bound correlation id missing from a supervised event"
    )
    counters = telemetry.snapshot()["counters"]
    for counter, kind in (
        ("supervisor.retries", "supervisor.retry"),
        ("supervisor.pool_respawns", "supervisor.respawn"),
    ):
        assert counters.get(counter, 0) == kinds[kind], (
            f"{counter} {counters.get(counter, 0)} != {kinds[kind]} {kind} lines"
        )
    print(f"chaos correlation OK: {dict(kinds)} all carrying job_id=0, counted once each")


def check_cli(out_dir: str) -> None:
    baseline = os.path.join(out_dir, "journal-uninterrupted.jsonl")
    for argv in (
        ["timeline", "--journal", baseline],
        ["jobs", "--journal", baseline],
        ["run", "--journal", baseline, "--fingerprint", "scenario="],
        ["hazards", "--flight-dir", os.path.join(out_dir, "flight"), "--cycles", "5"],
    ):
        code = obs_report.main(argv)
        assert code == 0, f"obs_report {argv} exited {code}"
    print("post-mortem CLI OK: timeline, jobs, run and hazards views all render")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="obs-smoke-out")
    parser.add_argument("--child-kill", metavar="JOURNAL", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child_kill is not None:
        asyncio.run(_service_job(args.child_kill, kill_after_progress=True))
        raise AssertionError("child survived past the kill point")

    # Absolute once, here: the kill-and-replay child runs in this
    # script's directory, not the caller's.
    out_dir = os.path.abspath(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    check_kill_and_replay(out_dir)
    check_hazard_forensics(out_dir)
    check_chaos_correlation(out_dir)
    check_cli(out_dir)
    print("obs smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
