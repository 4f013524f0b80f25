"""The per-run flight recorder: a bounded black box for the last N cycles.

Every run gets its own :class:`FlightRecorder`, whose
:meth:`~FlightRecorder.capture` is the last step of the run's record
stage (:class:`~repro.kernel.stages.RecordStage`), on the scalar path
and in the lockstep batch's record column alike: once per cycle the
recorder copies a small tuple of kinematics, plan/command values,
injection activity and detector state out of the
:class:`~repro.kernel.StepContext` into a bounded ring buffer.  Most
runs are boring and the buffer dies with the run; when a run turns
*interesting* — hazard, collision, alert, or a
failure/quarantine path that aborts the run — the buffer is flushed to a
compact JSON artifact via the atomic write-rename idiom of
:mod:`repro.resilience.checkpoint`, so every hazardous run in a campaign
ships the final seconds that led up to the event.

The capture path is deliberately read-only and allocation-light (one
tuple per captured cycle, lazy ring trim): the bench suite pins its
overhead under 3 % via ``flight_recorder_overhead_pct`` in
``BENCH_throughput.json``, and the golden suite pins bit-identical
results with the recorder on, scalar and batched.

The kinematic fields of each sample (``time``/``ego_s``/``ego_d``/
``ego_speed``/``ego_steering_deg``) read the very same scattered values
as :class:`~repro.analysis.metrics.TrajectorySample`, so a flight
record's tail matches the run's recorded trajectory bit-for-bit
(:func:`repro.obs.query.matches_trajectory_tail` is the pinned check).
"""

import itertools
import os
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.kernel.context import StepContext
from repro.resilience.checkpoint import atomic_write_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.analysis.metrics import RunResult

#: Bumped when the artifact layout changes; readers check it.
FLIGHT_RECORD_VERSION = 1

#: Column names of one flight sample, in tuple order.
FLIGHT_SAMPLE_FIELDS = (
    "cycle",
    "time",
    "ego_s",
    "ego_d",
    "ego_speed",
    "ego_heading_error",
    "ego_steering_deg",
    "lead_gap",
    "lead_speed",
    "adas_accel",
    "adas_brake",
    "adas_steering_deg",
    "executed_accel",
    "executed_brake",
    "executed_steering_deg",
    "driver_engaged",
    "collision",
    "new_hazards",
    "lane_invasions",
)

_UNSAFE = re.compile(r"[^A-Za-z0-9_.-]+")

#: Process-wide artifact counter: with the pid in the name this makes
#: artifact filenames unique across pool workers and within a worker.
_artifact_counter = itertools.count()


def _sanitize(part: str) -> str:
    return _UNSAFE.sub("-", part) or "none"


@dataclass(frozen=True)
class FlightRecorderConfig:
    """Picklable recorder settings, shipped to pool workers as-is.

    Attributes:
        output_dir: Directory receiving flight-record artifacts (created
            on first flush).
        capacity: Ring size — the last ``capacity`` cycles survive into
            the artifact (default 300 cycles = 3 s at 100 Hz).
        flush_on: Which run outcomes flush the ring to disk.  Any of
            ``"hazard"``, ``"collision"``, ``"alert"``, ``"failure"``
            (run aborted by an exception / supervisor kill), or
            ``"always"`` to keep every run's black box.
    """

    output_dir: str
    capacity: int = 300
    flush_on: Tuple[str, ...] = ("hazard", "collision", "alert", "failure")

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("FlightRecorderConfig.capacity must be positive")

    def recorder_for(self, sim: object) -> "FlightRecorder":
        """Build the per-run recorder for a built :class:`Simulation`."""
        config = sim.config  # type: ignore[attr-defined]
        scenario = sim.world.config.scenario  # type: ignore[attr-defined]
        return FlightRecorder(
            self,
            scenario=scenario.name,
            attack=config.attack_type.value if config.attack_type else None,
            strategy=sim.strategy.name,  # type: ignore[attr-defined]
            seed=config.seed,
        )


class FlightRecorder:
    """One run's black box: bounded capture + outcome-gated flush."""

    __slots__ = (
        "config",
        "scenario",
        "attack",
        "strategy",
        "seed",
        "_samples",
        "_cycle",
        "_high_water",
        "_flushed_path",
    )

    def __init__(
        self,
        config: FlightRecorderConfig,
        scenario: str,
        attack: Optional[str],
        strategy: str,
        seed: int,
    ):
        self.config = config
        self.scenario = scenario
        self.attack = attack
        self.strategy = strategy
        self.seed = seed
        self._samples: List[tuple] = []
        self._cycle = 0
        # Trim lazily in blocks so the hot path does one `del` per
        # `capacity` captures instead of a deque rotation per capture.
        self._high_water = 2 * config.capacity
        self._flushed_path: Optional[str] = None

    # ------------------------------------------------------------------
    # hot path

    def capture(self, ctx: StepContext) -> None:
        """Observe one completed cycle (read-only; the record stage's last step)."""
        cycle = self._cycle
        self._cycle = cycle + 1
        adas = ctx.adas_command
        executed = ctx.executed_command
        samples = self._samples
        samples.append(
            (
                cycle,
                ctx.end_time,
                ctx.ego_s,
                ctx.ego_d,
                ctx.ego_speed,
                ctx.ego_heading_error,
                ctx.ego_steering_deg,
                ctx.lead_gap,
                ctx.lead_speed,
                adas.accel,
                adas.brake,
                adas.steering_angle_deg,
                executed.accel,
                executed.brake,
                executed.steering_angle_deg,
                ctx.driver_engaged,
                ctx.collision is not None,
                len(ctx.new_hazards),
                ctx.lane_invasions,
            )
        )
        if len(samples) > self._high_water:
            del samples[: len(samples) - self.config.capacity]

    # ------------------------------------------------------------------
    # flush decisions

    def trigger_for(self, result: "RunResult") -> Optional[str]:
        """The flush trigger this result fires, or ``None`` to discard."""
        flush_on = self.config.flush_on
        if "always" in flush_on:
            return "always"
        if "collision" in flush_on and result.accidents:
            return "collision"
        if "hazard" in flush_on and result.hazards:
            return "hazard"
        if "alert" in flush_on and result.alerts:
            return "alert"
        return None

    def finalize(self, result: "RunResult") -> Optional[str]:
        """Flush the ring if the finished run is interesting.

        Returns the artifact path when a record was written.
        """
        trigger = self.trigger_for(result)
        if trigger is None:
            return None
        return self.dump(trigger)

    def abort(self, trigger: str = "failure") -> Optional[str]:
        """Best-effort flush when the run dies before :meth:`finalize`.

        Swallows write errors: the black box must never turn a failing
        run into a failing *flush* (the original exception is what the
        supervisor needs to see).
        """
        if "failure" not in self.config.flush_on and "always" not in self.config.flush_on:
            return None
        try:
            return self.dump(trigger)
        except OSError:
            return None

    def dump(self, trigger: str = "manual") -> str:
        """Write the current ring to a flight-record artifact, return its path."""
        samples = self._samples
        if len(samples) > self.config.capacity:
            del samples[: len(samples) - self.config.capacity]
        os.makedirs(self.config.output_dir, exist_ok=True)
        name = "flight-{}-{}-seed{}-{}-{}-{}.json".format(
            _sanitize(self.scenario),
            _sanitize(self.attack or "none"),
            self.seed,
            _sanitize(trigger),
            os.getpid(),
            next(_artifact_counter),
        )
        path = os.path.join(self.config.output_dir, name)
        atomic_write_json(
            path,
            {
                "version": FLIGHT_RECORD_VERSION,
                "scenario": self.scenario,
                "attack": self.attack,
                "strategy": self.strategy,
                "seed": self.seed,
                "trigger": trigger,
                "capacity": self.config.capacity,
                # Every cycle is captured; the field keeps the layout
                # of version-1 records.
                "capture_every": 1,
                "cycles": self._cycle,
                "fields": list(FLIGHT_SAMPLE_FIELDS),
                "samples": [list(sample) for sample in samples],
            },
        )
        self._flushed_path = path
        return path

    @property
    def flushed_path(self) -> Optional[str]:
        """Path of the most recent artifact written for this run, if any."""
        return self._flushed_path
