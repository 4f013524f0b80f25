"""Unit tests for the scalar per-stage probe (:class:`ProbedPipeline`)."""

from repro.kernel import StepContext, StepPipeline
from repro.telemetry import STAGE_METRIC, Telemetry, TelemetryConfig
from repro.telemetry.probe import ProbedPipeline


class _Logging:
    def __init__(self, name, log):
        self.name = name
        self._log = log

    def run(self, ctx):
        self._log.append(self.name)


def _pipeline(log):
    return StepPipeline([_Logging(name, log) for name in ("a", "b", "c")])


def _stage_counts(telemetry):
    return {
        name: data["count"]
        for name, data in telemetry.snapshot()["histograms"].items()
        if name.startswith("perf.stage.")
    }


class TestProbedPipeline:
    def test_shares_the_pipelines_stage_objects(self):
        pipeline = _pipeline([])
        probed = Telemetry(TelemetryConfig()).probe(pipeline)
        assert isinstance(probed, ProbedPipeline)
        assert probed.stage_names == pipeline.stage_names
        assert all(mine is theirs for mine, theirs in zip(probed.stages, pipeline.stages))

    def test_probe_off_leaves_the_pipeline_unwrapped(self):
        telemetry = Telemetry(TelemetryConfig(probe_stages=False))
        assert telemetry.probe(_pipeline([])) is None

    def test_each_cycle_runs_every_stage_and_times_one_round_robin(self):
        log = []
        telemetry = Telemetry(TelemetryConfig())
        probed = telemetry.probe(_pipeline(log))
        ctx = StepContext()
        for _ in range(10):
            probed.run_cycle(ctx)
        assert log == ["a", "b", "c"] * 10
        probed.flush()
        assert _stage_counts(telemetry) == {
            STAGE_METRIC.format(name="a"): 4,
            STAGE_METRIC.format(name="b"): 3,
            STAGE_METRIC.format(name="c"): 3,
        }

    def test_flush_is_idempotent(self):
        telemetry = Telemetry(TelemetryConfig())
        probed = telemetry.probe(_pipeline([]))
        ctx = StepContext()
        for _ in range(6):
            probed.run_cycle(ctx)
        probed.flush()
        probed.flush()
        assert sum(_stage_counts(telemetry).values()) == 6
        probed.run_cycle(ctx)
        probed.flush()
        assert sum(_stage_counts(telemetry).values()) == 7
