"""Integration tests of the telemetry layer across the execution paths.

Three guarantees are pinned here:

1. **Observe, never perturb** — every golden run is bit-identical with a
   full-rate probe + tracer attached (and a subset again at sampling
   rate 7), so enabling observability can never change science results.
2. **Mode-independent aggregation** — the deterministic snapshot
   (everything outside ``perf.*``) of one campaign is identical whether
   it ran sequentially, lockstep-batched or on a process pool, and the
   supervised path agrees on the result-derived counters.
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
from repro.injection.engine import run_simulation
from repro.telemetry import Telemetry, TelemetryConfig, prometheus_text

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
        telemetry = Telemetry(TelemetryConfig(sample_every=1, trace=True))
        result = run_simulation(config, strategy, telemetry=telemetry)
        assert result.to_dict() == golden_runs[key], (
            f"telemetry perturbed the simulation for {key}"
        )
        # The probe actually observed the run it did not perturb.
        histograms = telemetry.snapshot()["histograms"]
        assert any(name.startswith("perf.stage.") for name in histograms)

    @pytest.mark.parametrize("key", _ALL_KEYS[::4])
    def test_sampling_rate_7_keeps_goldens_bit_identical(self, key, golden_runs):
        config, strategy_name = _keyed_configs()[key]
        strategy = strategy_by_name(strategy_name) if strategy_name else None
        telemetry = Telemetry(TelemetryConfig(sample_every=7))
        result = run_simulation(config, strategy, telemetry=telemetry)
        assert result.to_dict() == golden_runs[key]

    def test_sampling_rate_thins_stage_samples_only(self):
        config, strategy_name = _keyed_configs()[_ALL_KEYS[0]]
        strategy = strategy_by_name(strategy_name) if strategy_name else None
        full = Telemetry(TelemetryConfig(sample_every=1))
        sampled = Telemetry(TelemetryConfig(sample_every=7))
        run_simulation(config, strategy, telemetry=full)
        run_simulation(config, strategy, telemetry=sampled)
        def stage_counts(telemetry):
            return {
                name: data["count"]
                for name, data in telemetry.snapshot()["histograms"].items()
                if name.startswith("perf.stage.")
            }

        full_counts = stage_counts(full)
        sampled_counts = stage_counts(sampled)
        steps = full.metrics.counter("runs.steps").value
        # Every timed cycle contributes exactly one sample (one stage,
        # round-robin), so the counts sum to the timed-cycle count and
        # split near-evenly across the stages.
        assert sum(full_counts.values()) == steps
        assert max(full_counts.values()) - min(full_counts.values()) <= 1
        assert sum(sampled_counts.values()) == -(-steps // 7)  # ceil: cycles 0, 7, ...
        # The deterministic view is identical either way.
        assert full.deterministic_snapshot() == sampled.deterministic_snapshot()


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

    def test_supervised_path_records_report_and_run_counters(self):
        config = _campaign_config()
        telemetry = Telemetry(TelemetryConfig())
        outcome = Campaign(config).run_resilient(workers=1, telemetry=telemetry)

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
        observed = run_search(Telemetry(TelemetryConfig(sample_every=3, trace=True)))
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
