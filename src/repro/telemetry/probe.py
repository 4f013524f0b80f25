"""Per-stage timing of the kernel's scalar control cycle.

:meth:`repro.telemetry.Telemetry.probe` builds a :class:`ProbedPipeline`
over a run's :class:`~repro.kernel.pipeline.StepPipeline`: the same stage
objects, but a ``run_cycle`` that times one stage with
:func:`time.perf_counter_ns` and buffers the raw nanoseconds.
:meth:`ProbedPipeline.flush` (called once per run, from the simulation's
finalizer) folds the buffers into per-stage histograms
(``perf.stage.<name>.ns``).  The lockstep batch executor never calls
``run_cycle``: when ``probe_stages`` is on, it times its eight stage
columns itself, on every cycle, into the same histograms
(:class:`repro.kernel.batch.BatchRunner`).

Overhead control
----------------

* **one stage per cycle, round-robin** — a cycle brackets a single stage
  with two clock reads and buffers one integer; which stage rotates
  every cycle, so each stage is sampled every ``stage count``-th cycle.
  Timing every boundary of every cycle (nine clock reads plus nine
  buffer appends) was measured at 6-8 % of a run on this workload —
  interleaved clock calls cost far more than a tight microbenchmark
  suggests — while the rotation keeps the probe inside the <5 % budget
  gated by ``benchmarks/check_regression.py``
  (``telemetry_overhead_pct``) without giving up per-stage
  distributions.  Stage shares are estimates from interleaved samples
  rather than a same-cycle breakdown; at histogram-bucket resolution
  the difference is invisible.
* **deferred bucketing** — the hot loop only appends raw integers to a
  per-stage list; sorting and bucket classification happen once per run
  in :meth:`Histogram.record_many` (C-level ``sorted`` + one ``bisect``
  per bucket edge instead of one per sample).
* **no behavioural surface** — the probe only reads clocks and writes
  into its own buffers.  It never touches the RNG streams, the
  :class:`~repro.kernel.context.StepContext`, or any stage state — the
  stage objects themselves are shared with the probed pipeline, not
  wrapped — so results with the probe on are bit-identical to unprobed
  runs (pinned by the golden suite).  With telemetry off, or
  ``probe_stages=False``, the pipeline is not wrapped at all.

Every cycle contributes exactly one sample, so the per-stage counts sum
to the cycle count and split evenly across the stages.  The flight
recorder's capture is the record stage's last step, so with a recorder
on, the ``record`` samples include it.
"""

from time import perf_counter_ns
from typing import Iterable, List, Tuple

from repro.kernel.context import StepContext
from repro.kernel.pipeline import PipelineStage, StepPipeline
from repro.telemetry.metrics import MetricsRegistry

#: Metric-name template of the per-stage latency histograms.
STAGE_METRIC = "perf.stage.{name}.ns"


class ProbedPipeline(StepPipeline):
    """A pipeline whose every cycle times one stage, round-robin."""

    __slots__ = ("metrics", "_buffers", "_splits", "_rotation")

    def __init__(self, stages: Iterable[PipelineStage], metrics: MetricsRegistry):
        super().__init__(stages)
        self.metrics = metrics
        self._buffers: Tuple[List[int], ...] = tuple([] for _ in self.stages)
        runs = self._runs
        # Per-target precomputed (stages before, timed stage, stages
        # after, buffer append) so a cycle pays no per-stage branch.
        self._splits = tuple(
            (runs[:index], run, runs[index + 1 :], buffer.append)
            for index, (run, buffer) in enumerate(zip(runs, self._buffers))
        )
        self._rotation = 0

    def run_cycle(self, ctx: StepContext) -> None:
        splits = self._splits
        target = self._rotation
        self._rotation = (target + 1) % len(splits)
        before, timed, after, append = splits[target]
        for run in before:
            run(ctx)
        clock = perf_counter_ns
        start = clock()
        timed(ctx)
        append(clock() - start)
        for run in after:
            run(ctx)

    def flush(self) -> None:
        """Fold the buffered timings into the histograms (idempotent)."""
        metrics = self.metrics
        for stage, buffer in zip(self.stages, self._buffers):
            if buffer:
                metrics.histogram(STAGE_METRIC.format(name=stage.name)).record_many(
                    buffer
                )
                buffer.clear()
