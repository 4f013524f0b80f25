#!/usr/bin/env python3
"""Observability demo: campaign metrics, Prometheus export and tracing.

Runs a reduced attack campaign with a :class:`repro.telemetry.Telemetry`
handle attached, then shows every export surface of the observability
layer:

* the human-readable ``summary()`` table (run/hazard/CAN counters plus
  sampled per-stage latency histograms),
* a Prometheus text-format export (``telemetry_metrics.prom``),
* a JSON snapshot (``telemetry_metrics.json``) — the same mergeable
  structure pool workers ship back to the parent,
* a Chrome-trace JSONL span log (``telemetry_trace.jsonl``) — drag it
  into https://ui.perfetto.dev or chrome://tracing to see the campaign,
  per-run and search spans on a timeline.

Telemetry is observe-only: the campaign results here are bit-identical
to a run without the handle (the golden suite pins this at sampling
rates 1 and 7).

Run with::

    PYTHONPATH=src python examples/telemetry_report.py
"""

from repro.core.attack_types import AttackType
from repro.injection.campaign import Campaign, CampaignConfig
from repro.telemetry import Telemetry, TelemetryConfig


def main() -> None:
    config = CampaignConfig(
        strategy_name="Context-Aware",
        scenarios=("S1", "S2"),
        initial_distances=(50.0, 70.0),
        attack_types=(AttackType.DECELERATION, AttackType.STEERING_LEFT),
        repetitions=2,
        max_steps=2000,
    )
    telemetry = Telemetry(TelemetryConfig(trace=True))

    print(f"running {config.total_runs} simulations with telemetry attached...")
    results = Campaign(config).run(telemetry=telemetry)
    hazards = sum(1 for result in results if result.hazard_occurred)
    print(f"done: {len(results)} runs, {hazards} with a hazard\n")

    print(telemetry.summary(title="campaign telemetry"))

    telemetry.write_prometheus("telemetry_metrics.prom")
    telemetry.write_json("telemetry_metrics.json", extra={"runs": len(results)})
    spans = telemetry.write_trace_jsonl("telemetry_trace.jsonl")
    print("\nwrote telemetry_metrics.prom (Prometheus text format)")
    print("wrote telemetry_metrics.json (mergeable snapshot)")
    print(f"wrote telemetry_trace.jsonl ({spans} spans; open in ui.perfetto.dev)")


if __name__ == "__main__":
    main()
