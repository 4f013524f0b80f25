"""Perf-regression gate for CI.

Compares a freshly measured ``BENCH_throughput.fresh.json`` (written by
``benchmarks/test_bench_throughput.py``) against the baseline committed
in the repository and fails (exit code 1) when the single-run step
throughput regressed more than the allowed fraction::

    PYTHONPATH=src python benchmarks/check_regression.py \
        --baseline BENCH_throughput.json \
        --current BENCH_throughput.fresh.json \
        --max-regression 0.20

CI runners are noisy, so the gate only guards the single-run steps/s
number (the campaign rate divides out the same way) with a generous
threshold: it exists to catch order-of-magnitude mistakes (an accidental
de-optimisation of the hot loop), not 5 % jitter.

The search-throughput row (``search_evals_per_s``) and the supervised
campaign row (``resilient_campaign_runs_per_s``) are gated the same way
*when both files carry them* — a baseline predating those subsystems
passes trivially, but once a row is in the committed baseline a current
run may not silently drop or regress it.

Two rows additionally carry absolute bounds, compared within the *same*
measured run (so they are immune to runner-speed drift between baseline
and current):

- ``resilient_supervision_overhead_pct`` (supervised vs plain executor
  on the same workload) may not exceed ``--max-overhead`` (default 5%)
  — supervision must stay an invisible wrapper when nothing fails.
- ``telemetry_overhead_pct`` (probed-at-full-rate vs unprobed single
  run) may not exceed ``--max-telemetry-overhead`` (default 5%) — the
  observability layer's contract is "cheap when on, free when off".
- ``flight_recorder_overhead_pct`` (full-rate ring capture vs untapped
  single run) may not exceed ``--max-flight-recorder-overhead``
  (default 3%) — the black box must stay cheap enough to leave on for
  whole campaigns.

Every gate is evaluated even after one fails, so a red CI run reports
the full set of regressions at once instead of one per push.
"""

import argparse
import json
import sys
from typing import List, Optional

#: Relative gates: (measurement key, human label, unit, display precision).
RATE_GATES = (
    ("single_run_steps_per_second", "single-run throughput", "steps/s", 0),
    ("search_evals_per_s", "attack-search throughput", "evals/s", 2),
    ("resilient_campaign_runs_per_s", "supervised-campaign throughput", "runs/s", 2),
    ("dense_batch_steps_per_s_64", "dense-batch throughput (batch 64)", "steps/s", 0),
    ("dense_batch_steps_per_s_256", "dense-batch throughput (batch 256)", "steps/s", 0),
    ("cached_campaign_warm_runs_per_s", "warm cache serving rate", "runs/s", 2),
    ("cache_hit_rate", "warm cache hit rate", "", 4),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="committed BENCH_throughput.json")
    parser.add_argument(
        "--current", required=True, help="freshly measured BENCH_throughput.fresh.json"
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="maximum allowed fractional drop in single-run steps/s (default 0.20)",
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=5.0,
        help="maximum allowed supervision overhead on the clean path, "
        "percent (default 5.0)",
    )
    parser.add_argument(
        "--max-telemetry-overhead",
        type=float,
        default=5.0,
        help="maximum allowed full-rate telemetry overhead on a single run, "
        "percent (default 5.0)",
    )
    parser.add_argument(
        "--max-flight-recorder-overhead",
        type=float,
        default=3.0,
        help="maximum allowed full-rate flight-recorder overhead on a single "
        "run, percent (default 3.0)",
    )
    args = parser.parse_args(argv)

    try:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"cannot read baseline {args.baseline}: {error}")
        return 1
    try:
        with open(args.current) as handle:
            current = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"cannot read current measurement {args.current}: {error}")
        return 1
    if not isinstance(baseline, dict) or not isinstance(current, dict):
        print("benchmark files must contain a JSON object")
        return 1

    failing: List[str] = []

    def gate(key: str, failed: bool) -> None:
        if failed:
            failing.append(key)

    for key, label, unit, precision in RATE_GATES:
        gate(key, _check_key(baseline, current, key, label, unit, precision, args.max_regression))
    gate(
        "resilient_supervision_overhead_pct",
        _check_overhead(
            current,
            key="resilient_supervision_overhead_pct",
            label="supervision overhead (clean path)",
            bound=args.max_overhead,
            hint="benchmarks/test_bench_throughput.py::test_bench_resilient_campaign",
        ),
    )
    gate(
        "telemetry_overhead_pct",
        _check_overhead(
            current,
            key="telemetry_overhead_pct",
            label="telemetry overhead (sampling every cycle)",
            bound=args.max_telemetry_overhead,
            hint="benchmarks/test_bench_throughput.py::test_bench_telemetry_overhead",
        ),
    )
    gate(
        "flight_recorder_overhead_pct",
        _check_overhead(
            current,
            key="flight_recorder_overhead_pct",
            label="flight-recorder overhead (capture every cycle)",
            bound=args.max_flight_recorder_overhead,
            hint="benchmarks/test_bench_throughput.py::test_bench_flight_recorder_overhead",
        ),
    )

    if failing:
        print(f"FAIL: {len(failing)} gate(s) failed: {', '.join(failing)}")
        return 1
    print("OK: within the allowed envelope")
    return 0


def _check_key(
    baseline: dict,
    current: dict,
    key: str,
    label: str,
    unit: str,
    precision: int,
    max_regression: float,
) -> bool:
    """Gate one measurement key; a baseline without the key gates nothing.

    Returns ``True`` when the gate failed.
    """
    baseline_rate = _measurement(baseline, key)
    if baseline_rate is None:
        print(f"baseline has no {key} measurement; nothing to compare against")
        return False
    current_rate = _measurement(current, key)
    if current_rate is None:
        print(f"FAIL: current run produced no {key} measurement")
        return True

    change = (current_rate - baseline_rate) / baseline_rate
    print(
        f"{label}: baseline {baseline_rate:.{precision}f} {unit}, "
        f"current {current_rate:.{precision}f} {unit} ({change:+.1%})"
    )
    if change < -max_regression:
        print(
            f"FAIL: {key} regression beyond the allowed {max_regression:.0%} "
            "(see benchmarks/test_bench_throughput.py)"
        )
        return True
    return False


def _check_overhead(current: dict, key: str, label: str, bound: float, hint: str) -> bool:
    """Bound an overhead row of the current run (absolute %).

    Unlike the rate gates this compares two rows of the *same* measured
    run (instrumented vs plain on the same workload, same machine), so
    it is immune to runner-speed drift between baseline and current.  A
    run without the row gates nothing.  Returns ``True`` on failure.
    """
    overhead = _measurement(current, key)
    if overhead is None:
        print(f"current run carries no {key} measurement; skipping bound")
        return False
    print(f"{label}: {overhead:+.1f}% (bound {bound:.1f}%)")
    if overhead > bound:
        print(f"FAIL: {key} is {overhead:.1f}%, above the allowed {bound:.1f}% (see {hint})")
        return True
    return False


def _measurement(data: dict, key: str) -> Optional[float]:
    try:
        return float(data["measurements"][key])
    except (KeyError, TypeError, ValueError):
        return None


if __name__ == "__main__":
    sys.exit(main())
