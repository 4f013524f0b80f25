"""Ordered stage pipeline driving one control cycle over a StepContext.

The pipeline is deliberately tiny: a stage is any object with a ``name``
attribute and a ``run(ctx)`` method, and :meth:`StepPipeline.run_cycle`
calls each stage's ``run`` in order.  The stage methods are bound once at
construction so the 100 Hz inner loop is a flat tuple walk.

The lockstep batch executor (:mod:`repro.kernel.batch`) never calls
``run_cycle``: it looks the eight stages up by name and walks them as
columns across many runs.  So everything that observes a cycle lives
inside a stage (the flight recorder's capture ends the record stage),
and the one subclass, :class:`repro.telemetry.probe.ProbedPipeline`,
only times the scalar walk over the same shared stage objects.
"""

from typing import Iterable, Tuple

from repro.kernel.context import StepContext


class PipelineStage:
    """Base class for pipeline stages (subclassing is optional).

    A stage only needs a ``name`` string and a ``run(ctx)`` method; this
    base exists for documentation and isinstance-friendly typing.
    """

    __slots__ = ()

    name: str = "stage"

    def run(self, ctx: StepContext) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class StepPipeline:
    """An ordered, immutable sequence of pipeline stages."""

    __slots__ = ("stages", "_runs")

    def __init__(self, stages: Iterable[PipelineStage]):
        self.stages: Tuple[PipelineStage, ...] = tuple(stages)
        if not self.stages:
            raise ValueError("a pipeline needs at least one stage")
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")
        self._runs = tuple(stage.run for stage in self.stages)

    # -- hot path ---------------------------------------------------------

    def run_cycle(self, ctx: StepContext) -> None:
        """Run every stage once, in order, over ``ctx``."""
        for run in self._runs:
            run(ctx)

    # -- introspection ----------------------------------------------------

    @property
    def stage_names(self) -> Tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def stage(self, name: str) -> PipelineStage:
        """Return the stage called ``name`` (KeyError if absent)."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"no stage named {name!r} (have {list(self.stage_names)})")
