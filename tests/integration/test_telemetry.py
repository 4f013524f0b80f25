"""Integration tests of the telemetry layer across the execution paths.

Three guarantees are pinned here:

1. **Observe, never perturb** — every golden run is bit-identical with a
   probe + tracer attached, so enabling observability can never change
   science results; the probe times one stage per cycle on the scalar
   path, and the batch runner times every stage column of every cycle
   (with stage probes off, only the cycles).
2. **Mode-independent aggregation** — the deterministic snapshot
   (everything outside ``perf.*``) of one campaign is identical whether
   it ran sequentially, lockstep-batched, on a process pool or under
   supervision with a retried chunk (outside the ``supervisor.*``
   report itself).
3. **Export surfaces work end to end** — a campaign-produced registry
   renders to Prometheus text, JSON and a Perfetto-loadable JSONL trace.
"""

import json
import os
import sys

import pytest

from repro.core.attack_types import AttackType
from repro.core.strategies import strategy_by_name
from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.engine import SimulationConfig, run_simulation
from repro.kernel import run_batched
from repro.resilience import FaultSpec, SupervisionPolicy, chaos_policy, run_supervised_simulations
from repro.telemetry import STAGE_METRIC, Telemetry, TelemetryConfig, prometheus_text

_GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "golden"
)
sys.path.insert(0, _GOLDEN_DIR)

from generate_goldens import (  # noqa: E402  (path set up above)
    GOLDEN_PATH,
    golden_configs,
)


@pytest.fixture(scope="module")
def golden_runs():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["runs"]


def _keyed_configs():
    return {key: (config, strategy) for key, config, strategy in golden_configs()}


_ALL_KEYS = [key for key, _, _ in golden_configs()]


class TestGoldenRunsUnperturbed:
    @pytest.mark.parametrize("key", _ALL_KEYS)
    def test_full_rate_probe_and_tracer_keep_goldens_bit_identical(self, key, golden_runs):
        config, strategy_name = _keyed_configs()[key]
        strategy = strategy_by_name(strategy_name) if strategy_name else None
        telemetry = Telemetry(TelemetryConfig(trace=True))
        result = run_simulation(config, strategy, telemetry=telemetry)
        assert result.to_dict() == golden_runs[key], (
            f"telemetry perturbed the simulation for {key}"
        )
        # The probe observed the run it did not perturb: every cycle
        # contributes exactly one sample (one stage, round-robin), so the
        # counts sum to the cycle count and split near-evenly across the
        # eight stages.
        counts = {
            name: data["count"]
            for name, data in telemetry.snapshot()["histograms"].items()
            if name.startswith("perf.stage.")
        }
        assert len(counts) == 8
        assert sum(counts.values()) == telemetry.metrics.counter("runs.steps").value
        assert max(counts.values()) - min(counts.values()) <= 1

    @pytest.mark.parametrize("key", _ALL_KEYS[::4])
    def test_counters_only_telemetry_keeps_goldens_bit_identical(self, key, golden_runs):
        # probe_stages=False, the configuration perfbench measures with,
        # leaves the run unwrapped: no stage samples, and the same
        # deterministic view as a probed run.
        config, strategy_name = _keyed_configs()[key]
        strategy = strategy_by_name(strategy_name) if strategy_name else None
        counters_only = Telemetry(TelemetryConfig(probe_stages=False))
        probed = Telemetry(TelemetryConfig())
        result = run_simulation(config, strategy, telemetry=counters_only)
        assert result.to_dict() == golden_runs[key]
        run_simulation(config, strategy, telemetry=probed)
        histograms = counters_only.snapshot()["histograms"]
        assert not any(name.startswith("perf.stage.") for name in histograms)
        assert counters_only.metrics.counter("runs.steps").value > 0
        assert counters_only.deterministic_snapshot() == probed.deterministic_snapshot()


def _assert_every_column_timed(telemetry, cycles: int, steps: int) -> None:
    snapshot = telemetry.snapshot()
    histograms = snapshot["histograms"]
    assert histograms["perf.batch.cycle_ns"]["count"] == cycles
    stages = ("sense", "perceive", "plan", "inject", "drive", "actuate", "detect", "record")
    for stage in stages:
        assert histograms[STAGE_METRIC.format(name=stage)]["count"] == cycles, stage
    counters = snapshot["counters"]
    assert counters["perf.batch.cycle_rows"] == counters["runs.steps"] == steps


class TestBatchedStageTiming:
    def test_narrow_cycles_time_every_stage_column(self, kernel_tiers):
        # Four rows run the scalar tier at the production threshold; each
        # cycle must still time all eight stage columns, as the forced
        # dense tier's cycles do.
        tasks = [
            (SimulationConfig(scenario="S1", seed=seed, max_steps=steps), None)
            for seed, steps in enumerate((200, 150, 100, 50))
        ]
        telemetry = Telemetry(TelemetryConfig())
        run_batched(tasks, batch_size=4, telemetry=telemetry)
        _assert_every_column_timed(telemetry, cycles=200, steps=500)

    def test_cycles_crossing_the_tier_thresholds_time_every_stage_column(self, kernel_tiers):
        # Forty rows retiring two cycles apart: at the production
        # threshold the batch starts above DENSE_MIN_ACTIVE and drains
        # into scalar-tier cycles, and every cycle of both tiers times
        # all eight stage columns.
        lengths = [40 + 2 * index for index in range(40)]
        tasks = [
            (SimulationConfig(scenario="S1", seed=seed, max_steps=steps), None)
            for seed, steps in enumerate(lengths)
        ]
        telemetry = Telemetry(TelemetryConfig())
        run_batched(tasks, batch_size=40, telemetry=telemetry)
        _assert_every_column_timed(telemetry, cycles=max(lengths), steps=sum(lengths))

    def test_stage_probes_off_time_only_the_cycles(self, kernel_tiers):
        # probe_stages=False, the configuration perfbench traces with:
        # the batch runner keeps its per-cycle metrics and times no stage
        # column.
        lengths = (200, 150, 100, 50)
        tasks = [
            (SimulationConfig(scenario="S1", seed=seed, max_steps=steps), None)
            for seed, steps in enumerate(lengths)
        ]
        telemetry = Telemetry(TelemetryConfig(probe_stages=False))
        run_batched(tasks, batch_size=4, telemetry=telemetry)
        snapshot = telemetry.snapshot()
        histograms = snapshot["histograms"]
        assert not any(name.startswith("perf.stage.") for name in histograms)
        assert histograms["perf.batch.cycle_ns"]["count"] == max(lengths)
        counters = snapshot["counters"]
        assert counters["perf.batch.cycle_rows"] == counters["runs.steps"] == sum(lengths)


def _campaign_config():
    return CampaignConfig(
        strategy_name="Context-Aware",
        scenarios=("S1", "S2"),
        initial_distances=(None, 50.0),
        attack_types=(AttackType.DECELERATION,),
        repetitions=2,
        max_steps=800,
    )


class TestCrossModeAggregation:
    def test_sequential_pooled_batched_deterministic_snapshots_agree(self):
        config = _campaign_config()

        sequential = Telemetry(TelemetryConfig())
        results_sequential = Campaign(config).run(telemetry=sequential)

        pooled = Telemetry(TelemetryConfig())
        results_pooled = Campaign(config).run(workers=4, telemetry=pooled)

        batched = Telemetry(TelemetryConfig())
        results_batched = Campaign(config).run(batch_size=8, telemetry=batched)

        assert results_sequential == results_pooled == results_batched
        deterministic = sequential.deterministic_snapshot()
        assert deterministic == pooled.deterministic_snapshot()
        assert deterministic == batched.deterministic_snapshot()
        assert deterministic["counters"]["runs.completed"] == config.total_runs
        assert deterministic["counters"]["runs.steps"] > 0
        assert deterministic["counters"]["can.frames_sent"] > 0

    def test_campaign_snapshots_merge_across_telemetry_objects(self):
        config = _campaign_config()
        first = Telemetry(TelemetryConfig())
        second = Telemetry(TelemetryConfig())
        Campaign(config).run(telemetry=first)
        Campaign(config).run(telemetry=second)
        first.merge(second)
        assert (
            first.metrics.counter("runs.completed").value == 2 * config.total_runs
        )

    def test_supervised_pooled_retry_matches_plain_telemetry(self, tmp_path):
        """Worker telemetry of accepted attempts reaches the parent under
        supervision too, and a retried chunk is counted once."""
        config = _campaign_config()
        sequential = Telemetry(TelemetryConfig())
        baseline = Campaign(config).run(telemetry=sequential)

        supervised = Telemetry(TelemetryConfig())
        chaos = chaos_policy(
            [FaultSpec(kind="error", task_index=5)], state_dir=str(tmp_path / "chaos")
        )
        outcome = run_supervised_simulations(
            Campaign(config).tasks(),
            policy=SupervisionPolicy(backoff_base=0.01),
            workers=2,
            batch_size=4,
            chaos=chaos,
            telemetry=supervised,
        )
        assert outcome.completed_results == baseline
        assert outcome.report.retries == 1

        def outside_supervisor(telemetry):
            return {
                section: {
                    name: value
                    for name, value in values.items()
                    if not name.startswith("supervisor.")
                }
                for section, values in telemetry.deterministic_snapshot().items()
            }

        assert outside_supervisor(supervised) == outside_supervisor(sequential)
        counters = supervised.snapshot()["counters"]
        assert counters["can.frames_sent"] > 0
        assert counters["runs.steps"] > 0
        assert counters["supervisor.retries"] == 1
        histograms = supervised.snapshot()["histograms"]
        assert any(name.startswith("perf.stage.") for name in histograms)
        assert "perf.batch.cycle_ns" in histograms

    def test_supervised_path_records_report_and_run_counters(self):
        config = _campaign_config()
        telemetry = Telemetry(TelemetryConfig())
        outcome = run_supervised_simulations(
            Campaign(config).tasks(), workers=1, telemetry=telemetry
        )

        report = outcome.report
        assert not report.quarantine
        assert report.backoff_seconds == 0.0
        text = report.summary()
        assert "supervised execution:" in text
        assert "retries=0" in text and "backoff=0.00s" in text
        assert "no tasks quarantined" in text
        assert str(report) == text

        counters = telemetry.snapshot()["counters"]
        assert counters["supervisor.tasks"] == config.total_runs
        assert counters["supervisor.completed"] == config.total_runs
        assert counters["runs.completed"] == config.total_runs
        # The supervised result-derived counters agree with a plain run.
        plain = Telemetry(TelemetryConfig())
        Campaign(config).run(telemetry=plain)
        plain_counters = plain.deterministic_snapshot()["counters"]
        for name in ("runs.completed", "runs.hazards", "runs.with_hazard"):
            assert counters.get(name, 0) == plain_counters.get(name, 0)


class TestSearchTelemetry:
    def test_search_driver_records_counters_gauges_and_spans(self):
        from repro.search import (
            HazardObjective,
            SearchConfig,
            SearchDriver,
            attack_search_space,
            make_optimizer,
        )

        telemetry = Telemetry(TelemetryConfig(trace=True))
        space = attack_search_space(
            scenario="S1", attack_types=(AttackType.DECELERATION,), max_steps=600
        )
        driver = SearchDriver(
            space,
            HazardObjective(),
            lambda s: make_optimizer("random", s, seed=7, generation_size=4),
            SearchConfig(budget=8, master_seed=7, batch_size=4),
            telemetry=telemetry,
        )
        result = driver.run()

        snapshot = telemetry.snapshot()
        counters = snapshot["counters"]
        assert counters["search.evaluations"] == result.evaluations_used == 8
        assert counters["search.generations"] >= 2
        assert counters["search.simulations"] >= counters["search.evaluations"]
        assert "search.memo_hits" in counters
        gauges = snapshot["gauges"]
        assert gauges["search.best_score"] == result.best.score
        assert gauges["perf.search.evals_per_s"] > 0
        span_names = {span[0] for span in telemetry.tracer}
        assert "search" in span_names and "search.generation" in span_names

    def test_search_trajectory_identical_with_and_without_telemetry(self):
        from repro.search import (
            HazardObjective,
            SearchConfig,
            SearchDriver,
            attack_search_space,
            make_optimizer,
        )

        def run_search(telemetry):
            space = attack_search_space(
                scenario="S1", attack_types=(AttackType.DECELERATION,), max_steps=600
            )
            driver = SearchDriver(
                space,
                HazardObjective(),
                lambda s: make_optimizer("random", s, seed=7, generation_size=4),
                SearchConfig(budget=8, master_seed=7, batch_size=4),
                telemetry=telemetry,
            )
            return driver.run()

        plain = run_search(None)
        observed = run_search(Telemetry(TelemetryConfig(trace=True)))
        assert [e.score for e in plain.evaluations] == [
            e.score for e in observed.evaluations
        ]
        assert plain.best.index == observed.best.index


class TestCampaignExports:
    def test_campaign_registry_exports_prometheus_json_and_trace(self, tmp_path):
        config = _campaign_config()
        telemetry = Telemetry(TelemetryConfig(trace=True))
        results = Campaign(config).run(telemetry=telemetry)
        assert len(results) == config.total_runs

        text = telemetry.prometheus()
        assert text == prometheus_text(telemetry.metrics)
        assert "repro_runs_completed 8" in text

        json_path = tmp_path / "snapshot.json"
        telemetry.write_json(str(json_path), extra={"runs": len(results)})
        payload = json.loads(json_path.read_text())
        assert payload["counters"]["runs.completed"] == config.total_runs
        # The snapshot is the mergeable wire format workers ship back.
        from repro.telemetry import MetricsRegistry

        merged = MetricsRegistry()
        merged.merge(
            {key: payload[key] for key in ("counters", "gauges", "histograms")}
        )
        assert merged.counter("runs.completed").value == config.total_runs

        trace_path = tmp_path / "trace.jsonl"
        written = telemetry.write_trace_jsonl(str(trace_path))
        lines = trace_path.read_text().splitlines()
        assert written == len(lines) > 0
        events = [json.loads(line) for line in lines]
        assert {"campaign", "run"} <= {event["name"] for event in events}
        assert all(event["ph"] in ("X", "i") for event in events)

    def test_trace_export_requires_tracing_enabled(self, tmp_path):
        telemetry = Telemetry(TelemetryConfig(trace=False))
        with pytest.raises(ValueError):
            telemetry.write_trace_jsonl(str(tmp_path / "t.jsonl"))
        with pytest.raises(ValueError):
            telemetry.write_chrome_trace(str(tmp_path / "t.json"))


class TestExperimentEntryPoints:
    def test_run_table4_threads_telemetry_through(self):
        from repro.experiments import run_table4
        from repro.experiments.scale import ExperimentScale
        from repro.experiments.table4 import ContextAwareStrategy

        telemetry = Telemetry(TelemetryConfig())
        run_table4(
            ExperimentScale.smoke(),
            strategies=(ContextAwareStrategy,),
            attack_types=(AttackType.DECELERATION,),
            telemetry=telemetry,
        )
        assert telemetry.metrics.counter("runs.completed").value == 1

    def test_run_table4_traces_the_table_as_one_campaign_span(self):
        from repro.experiments import run_table4
        from repro.experiments.scale import ExperimentScale
        from repro.experiments.table4 import ContextAwareStrategy, NoAttackStrategy

        telemetry = Telemetry(TelemetryConfig(trace=True))
        table = run_table4(
            ExperimentScale.smoke(),
            strategies=(NoAttackStrategy, ContextAwareStrategy),
            attack_types=(AttackType.DECELERATION, AttackType.ACCELERATION),
            telemetry=telemetry,
        )
        campaigns = [args for name, _, _, _, args in telemetry.tracer if name == "campaign"]
        runs = sum(summary.runs for summary in table.summaries)
        assert campaigns == [{"mode": "tasks", "runs": runs}]
        assert runs == 3
