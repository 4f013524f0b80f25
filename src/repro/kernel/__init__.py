"""Allocation-free step-pipeline kernel for the 100 Hz control cycle.

The kernel replaces the four-layer re-derivation of per-step state (sim,
ADAS, injection, analysis each rebuilding the same observations) with a
single :class:`~repro.kernel.context.StepContext` carried through an
ordered :class:`~repro.kernel.pipeline.StepPipeline`::

    sense -> perceive -> plan -> inject -> drive -> actuate -> detect -> record

:class:`~repro.injection.engine.Simulation` assembles the pipeline from
the concrete stages in :mod:`repro.kernel.stages`; the context is
preallocated once per run and reused every cycle, so the hot loop is free
of per-step dataclass construction.  Batched lockstep execution of many
runs — one inner loop per stage over the whole batch, with the hot CAN
codec work vectorised across runs — lives in :mod:`repro.kernel.batch`
(:class:`BatchRunner`, which builds its stage columns across the
per-run pipelines' shared stage objects).  A cycle is observed inside
its stages, so both paths see it the same way: the record stage ends
with the flight recorder's capture, and stage timing wraps only the
scalar walk (:class:`repro.telemetry.ProbedPipeline`) or the batch
runner's column walk.
"""

from repro.kernel.batch import BatchRunner, run_batched
from repro.kernel.context import StepContext
from repro.kernel.pipeline import PipelineStage, StepPipeline
from repro.kernel.stages import (
    ActuateStage,
    DetectStage,
    DriveStage,
    InjectStage,
    PerceiveStage,
    PlanStage,
    RecordStage,
    SenseStage,
)

__all__ = [
    "ActuateStage",
    "BatchRunner",
    "DetectStage",
    "DriveStage",
    "InjectStage",
    "PerceiveStage",
    "PipelineStage",
    "PlanStage",
    "RecordStage",
    "SenseStage",
    "StepContext",
    "StepPipeline",
    "run_batched",
]
