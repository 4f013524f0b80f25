"""Throughput micro-benchmarks with a machine-readable trail.

Measures the two numbers the performance layer optimises — single-run
step throughput (the compiled CAN codec + step-loop fast paths) and
campaign run throughput (the parallel executor) — and writes them to
``BENCH_throughput.fresh.json`` at the repository root (git-ignored).
The committed ``BENCH_throughput.json`` is the baseline
``benchmarks/check_regression.py`` compares a fresh file against; it
changes only on purpose, by copying a fresh file over it, so running the
benchmarks (or the tier-1 suite, which collects them) never rewrites it.

The seed-revision baseline stored in the JSON was measured on the same
container that produced the committed file; speedup factors are only
meaningful when the benchmark machine is comparable.
"""

import json
import os
import time

import pytest

from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.engine import SimulationConfig, run_simulation

_BENCH_JSON = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_throughput.fresh.json")
)

#: Wall-clock numbers of the seed revision (sequential runner, reference
#: codec), measured on the container that generated BENCH_throughput.json.
SEED_BASELINE = {
    "single_run_steps_per_second": 5105.0,
    "campaign_runs_per_second": 5.10,
}

#: PR 4's lockstep batch executor (fused CAN codec, scalar planner and
#: physics) measured 19.2k steps/s per core on the same attack-free S1
#: grid used by test_bench_dense_batch_scaling — the reference the SoA
#: dense-column path is gated against (>= 1.5x at batch >= 64).
DENSE_BATCH_BASELINE_STEPS_PER_S = 19179.0

_results = {}


def _campaign_config(max_steps: int = 5000) -> CampaignConfig:
    """The reduced benchmark grid (matches benchmarks/conftest.py scale)."""
    return CampaignConfig(
        strategy_name="Context-Aware",
        scenarios=("S1", "S2"),
        initial_distances=(50.0, 70.0),
        repetitions=1,
        max_steps=max_steps,
    )


def _write_results() -> None:
    # Merge with the measurements already on disk so partial benchmark
    # selections (e.g. CI's perf-smoke subset, or the multi-core scaling
    # case run on a different host) update their rows without dropping
    # the others.
    measurements = {}
    try:
        with open(_BENCH_JSON) as handle:
            measurements = json.load(handle).get("measurements", {})
    except (OSError, ValueError):
        pass
    measurements.update(_results)
    payload = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": os.cpu_count(),
        "seed_baseline": SEED_BASELINE,
        "measurements": measurements,
    }
    if "single_run_steps_per_second" in measurements:
        payload["speedup_single_run_vs_seed"] = round(
            measurements["single_run_steps_per_second"]
            / SEED_BASELINE["single_run_steps_per_second"],
            2,
        )
    best_campaign = max(
        (
            measurements.get("campaign_sequential_runs_per_second", 0.0),
            measurements.get("campaign_parallel_runs_per_second", 0.0),
            measurements.get("batched_campaign_runs_per_second", 0.0),
        )
    )
    if best_campaign:
        payload["speedup_campaign_vs_seed"] = round(
            best_campaign / SEED_BASELINE["campaign_runs_per_second"], 2
        )
    with open(_BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_bench_single_run_step_throughput(benchmark):
    """Steps/second of one attack-free 50 s simulation (best of 3)."""

    def one_run():
        return run_simulation(
            SimulationConfig(scenario="S1", initial_distance=70.0, seed=0)
        )

    best = float("inf")
    steps = 0
    for _ in range(2):  # warm-up-free best-of pre-runs
        start = time.perf_counter()
        result = one_run()
        best = min(best, time.perf_counter() - start)
        steps = round(result.duration / 0.01)
    start = time.perf_counter()
    result = benchmark.pedantic(one_run, rounds=1, iterations=1)
    best = min(best, time.perf_counter() - start)

    assert result.duration >= 45.0
    _results["single_run_steps_per_second"] = round(steps / best, 1)
    _write_results()
    print(f"\nsingle-run throughput: {steps / best:.0f} steps/s (seed: "
          f"{SEED_BASELINE['single_run_steps_per_second']:.0f})")


def test_bench_campaign_throughput(benchmark):
    """Runs/second of the reduced campaign, sequential and with 4 workers.

    Sequential and parallel results must agree exactly (the executor's
    core guarantee); both rates are recorded.  On single-core containers
    the parallel rate will not exceed the sequential one.
    """
    config = _campaign_config()
    total = config.total_runs

    start = time.perf_counter()
    sequential = Campaign(config).run()
    sequential_elapsed = time.perf_counter() - start

    def parallel_run():
        return Campaign(config).run(workers=4)

    start = time.perf_counter()
    parallel = benchmark.pedantic(parallel_run, rounds=1, iterations=1)
    parallel_elapsed = time.perf_counter() - start

    assert len(sequential) == len(parallel) == total
    assert sequential == parallel

    _results["campaign_total_runs"] = total
    _results["campaign_sequential_runs_per_second"] = round(total / sequential_elapsed, 2)
    _results["campaign_parallel_runs_per_second"] = round(total / parallel_elapsed, 2)
    _results["campaign_parallel_workers"] = 4
    _write_results()
    print(
        f"\ncampaign throughput: {total / sequential_elapsed:.2f} runs/s sequential, "
        f"{total / parallel_elapsed:.2f} runs/s with 4 workers "
        f"(seed: {SEED_BASELINE['campaign_runs_per_second']:.2f})"
    )


def test_bench_batched_campaign(benchmark):
    """Lockstep-batched campaign throughput vs sequential, same workload.

    Measures the reduced grid at two repetitions (48 runs — enough
    pending work that retirement keeps the lockstep batch dense) twice
    each way, interleaved, and records the best-of passes plus their
    ratio.  Batched results must equal sequential results exactly (the
    batch executor's core guarantee).  Batch 24 is below
    ``DENSE_MIN_ACTIVE``, so every cycle runs the scalar tier and the
    speedup stays near 1; it is per-core and composes with
    ``workers=N``.
    """
    config = _campaign_config()
    config = CampaignConfig(
        strategy_name=config.strategy_name,
        scenarios=config.scenarios,
        initial_distances=config.initial_distances,
        repetitions=2,
        max_steps=config.max_steps,
    )
    total = config.total_runs
    batch_size = 24

    sequential_best = float("inf")
    batched_best = float("inf")
    reference = None
    for _ in range(2):
        start = time.perf_counter()
        sequential = Campaign(config).run()
        sequential_best = min(sequential_best, time.perf_counter() - start)
        start = time.perf_counter()
        batched = Campaign(config).run(batch_size=batch_size)
        batched_best = min(batched_best, time.perf_counter() - start)
        if reference is None:
            reference = sequential
        assert sequential == reference
        assert batched == reference

    def batched_run():
        return Campaign(config).run(batch_size=batch_size)

    # The pytest-benchmark pass is excluded from the recorded comparison so
    # both modes contribute exactly two interleaved samples.
    final = benchmark.pedantic(batched_run, rounds=1, iterations=1)
    assert final == reference

    _results["batched_campaign_total_runs"] = total
    _results["batched_campaign_batch_size"] = batch_size
    _results["batched_campaign_runs_per_second"] = round(total / batched_best, 2)
    _results["batched_campaign_sequential_runs_per_second"] = round(
        total / sequential_best, 2
    )
    _results["batched_campaign_speedup_vs_sequential"] = round(
        sequential_best / batched_best, 2
    )
    _write_results()
    print(
        f"\nbatched campaign: {total / batched_best:.2f} runs/s at batch_size={batch_size} "
        f"vs {total / sequential_best:.2f} runs/s sequential "
        f"({sequential_best / batched_best:.2f}x, same {total}-run workload)"
    )


def test_bench_dense_batch_scaling(benchmark):
    """Batch kernel tiers: per-core steps/s at batch 8/64/256.

    Runs attack-free S1 workloads (one run per batch row, 1500 steps
    each) through :func:`repro.kernel.run_batched` and records the
    scaling curve as ``dense_batch_steps_per_s_{8,64,256}`` rows.  At
    batch 64 and 256 every row rides the dense column path end to end
    (equal-length attack-free rows stay dense until they retire
    together); batch 8 is below ``DENSE_MIN_ACTIVE`` and measures the
    scalar tier.  The acceptance bar is
    relative to the PR 4 batched-campaign *per-core* step throughput
    (the fused-codec lockstep without SoA residency): batch >= 64 must
    show >= 1.5x.  Bit-for-bit equivalence of the dense path is pinned
    separately by tests/integration/test_batch_equivalence.py; this
    case only spot-checks one width against the sequential runner.
    """
    from repro.kernel import run_batched

    def tasks_for(width):
        return [
            (
                SimulationConfig(
                    scenario="S1", initial_distance=70.0, seed=i, max_steps=1500
                ),
                None,
            )
            for i in range(width)
        ]

    rates = {}
    for width in (8, 64, 256):
        best = float("inf")
        results = None
        for _ in range(2):
            batch = tasks_for(width)
            start = time.perf_counter()
            results = run_batched(batch, batch_size=width)
            best = min(best, time.perf_counter() - start)
        rates[width] = (1500 * len(results)) / best
        if width == 8:
            sequential = [run_simulation(config) for config, _ in tasks_for(width)]
            assert results == sequential

    def final_pass():
        return run_batched(tasks_for(256), batch_size=256)

    start = time.perf_counter()
    final = benchmark.pedantic(final_pass, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    rates[256] = max(rates[256], (1500 * len(final)) / elapsed)

    baseline = DENSE_BATCH_BASELINE_STEPS_PER_S
    for width, rate in rates.items():
        _results[f"dense_batch_steps_per_s_{width}"] = round(rate, 1)
    _results["dense_batch_speedup_vs_pr4_lockstep"] = round(rates[256] / baseline, 2)
    _write_results()
    print(
        "\ndense batch scaling: "
        + ", ".join(f"{rate:,.0f} steps/s @ {width}" for width, rate in rates.items())
        + f" (PR 4 lockstep per-core: {baseline:,.0f}; "
        f"best speedup {rates[256] / baseline:.2f}x)"
    )


def test_bench_search_throughput(benchmark):
    """Attack-search evaluations/second through the batched kernel.

    Runs a fixed-budget random search (the repro.search subsystem's
    workload: decode → lockstep batch → objective) on the pinned S1 +
    Deceleration case and records unique-point evaluations per second.
    The search trajectory is deterministic, so the workload is identical
    across revisions; the rate tracks simulator throughput plus the
    search layer's own overhead (decode, memo, audit trail).
    """
    from repro.core.attack_types import AttackType
    from repro.search import (
        HazardObjective,
        SearchConfig,
        SearchDriver,
        attack_search_space,
        make_optimizer,
    )

    budget = 12

    def one_search():
        space = attack_search_space(
            scenario="S1", attack_types=(AttackType.DECELERATION,), max_steps=2500
        )
        config = SearchConfig(budget=budget, master_seed=2022, batch_size=8)
        driver = SearchDriver(
            space,
            HazardObjective(),
            lambda s: make_optimizer("random", s, seed=2022, generation_size=6),
            config,
        )
        return driver.run()

    best = float("inf")
    start = time.perf_counter()
    result = one_search()
    best = min(best, time.perf_counter() - start)
    assert result.evaluations_used == budget
    assert result.best is not None

    start = time.perf_counter()
    final = benchmark.pedantic(one_search, rounds=1, iterations=1)
    best = min(best, time.perf_counter() - start)
    assert [e.score for e in final.evaluations] == [e.score for e in result.evaluations]

    _results["search_budget"] = budget
    _results["search_evals_per_s"] = round(budget / best, 2)
    _write_results()
    print(f"\nattack search: {budget / best:.2f} evals/s (budget {budget}, batch_size=8)")


def test_bench_resilient_campaign(benchmark):
    """Task-loop overhead on the clean (fault-free) path.

    Runs the reduced campaign as the bare ``run_simulation`` loop (the
    reference perfbench's workloads check against) and through the
    supervised task loop (same tasks, interleaved best-of-2 each way),
    and records both rates plus the overhead percentage.  The loop's
    chunk bookkeeping must stay within a few percent of the bare loop —
    ``benchmarks/check_regression.py`` gates the recorded overhead — and
    the results must be bit-identical (the resilience layer's core
    guarantee).
    """
    from repro.injection.engine import run_simulation
    from repro.resilience import SupervisionPolicy, run_supervised_simulations

    config = _campaign_config(max_steps=2500)
    total = config.total_runs

    def supervised_run():
        return run_supervised_simulations(
            Campaign(config).tasks(), policy=SupervisionPolicy(), workers=1
        )

    plain_best = float("inf")
    resilient_best = float("inf")
    reference = None
    for _ in range(2):
        tasks = Campaign(config).tasks()
        start = time.perf_counter()
        plain = [run_simulation(*task) for task in tasks]
        plain_best = min(plain_best, time.perf_counter() - start)
        start = time.perf_counter()
        outcome = supervised_run()
        resilient_best = min(resilient_best, time.perf_counter() - start)
        if reference is None:
            reference = plain
        assert plain == reference
        assert outcome.completed_results == reference
        assert not outcome.report.quarantine

    final = benchmark.pedantic(supervised_run, rounds=1, iterations=1)
    assert final.completed_results == reference

    overhead_pct = 100.0 * (resilient_best - plain_best) / plain_best
    _results["resilient_campaign_total_runs"] = total
    _results["resilient_campaign_runs_per_s"] = round(total / resilient_best, 2)
    _results["resilient_plain_runs_per_s"] = round(total / plain_best, 2)
    _results["resilient_supervision_overhead_pct"] = round(overhead_pct, 2)
    _write_results()
    print(
        f"\nresilient campaign: {total / resilient_best:.2f} runs/s supervised vs "
        f"{total / plain_best:.2f} runs/s bare loop ({overhead_pct:+.1f}% overhead)"
    )


def test_bench_telemetry_overhead(benchmark):
    """Full-rate telemetry cost on a single run (the "<5% when on" bound).

    Runs one attack-free 50 s simulation plain and with a
    :class:`repro.telemetry.Telemetry` timing one stage every cycle, and
    records both rates plus the overhead percentage —
    ``benchmarks/check_regression.py`` gates the recorded row at 5%.
    Shared CI runners drift by more than the bound within a
    single test, so the overhead is the *median of paired ratios*
    (probed/plain back to back, nine pairs): each ratio sees the same
    machine state, the pair order alternates so a monotonic slowdown
    cannot systematically penalise one arm, and the median discards
    throttling outliers.  The probed result must be bit-identical to the
    plain one (the telemetry layer's core guarantee: observe, never
    perturb).
    """
    import statistics

    from repro.telemetry import Telemetry, TelemetryConfig

    config = SimulationConfig(scenario="S1", initial_distance=70.0, seed=0)

    def plain_run():
        return run_simulation(config)

    def probed_run():
        return run_simulation(config, telemetry=Telemetry(TelemetryConfig()))

    def timed(runner):
        start = time.perf_counter()
        result = runner()
        return result, time.perf_counter() - start

    plain_best = float("inf")
    probed_best = float("inf")
    ratios = []
    reference = None
    steps = 0
    for pair in range(9):
        if pair % 2 == 0:
            plain, plain_elapsed = timed(plain_run)
            probed, probed_elapsed = timed(probed_run)
        else:
            probed, probed_elapsed = timed(probed_run)
            plain, plain_elapsed = timed(plain_run)
        plain_best = min(plain_best, plain_elapsed)
        probed_best = min(probed_best, probed_elapsed)
        ratios.append(probed_elapsed / plain_elapsed)
        if reference is None:
            reference = plain
            steps = round(plain.duration / 0.01)
        assert plain == reference
        assert probed == reference

    final = benchmark.pedantic(probed_run, rounds=1, iterations=1)
    assert final == reference

    overhead_pct = 100.0 * (statistics.median(ratios) - 1.0)
    _results["telemetry_single_run_steps_per_second"] = round(steps / probed_best, 1)
    _results["telemetry_plain_steps_per_second"] = round(steps / plain_best, 1)
    _results["telemetry_overhead_pct"] = round(overhead_pct, 2)
    _write_results()
    print(
        f"\ntelemetry overhead: {steps / probed_best:.0f} steps/s probed vs "
        f"{steps / plain_best:.0f} steps/s plain ({overhead_pct:+.1f}%)"
    )


def test_bench_flight_recorder_overhead(benchmark):
    """Full-rate flight-recorder cost on a single run (the "<3%" bound).

    Runs one attack-free 50 s simulation plain and with the flight
    recorder capturing every cycle into its ring (the most expensive
    setting; the run is boring, so nothing flushes and the measured cost
    is pure capture).  Methodology follows the telemetry bench above:
    nine order-alternating plain/tapped pairs on the same machine state,
    overhead is the *median of paired ratios* so runner drift and
    throttling outliers cannot fake a regression —
    ``benchmarks/check_regression.py`` gates the recorded row at 3%.
    The tapped result must be bit-identical to the plain one (the
    recorder's core guarantee: observe, never perturb).
    """
    import statistics
    import tempfile

    from repro.obs.recorder import FlightRecorderConfig

    config = SimulationConfig(scenario="S1", initial_distance=70.0, seed=0)
    recorder = FlightRecorderConfig(
        output_dir=tempfile.mkdtemp(prefix="bench-flight-"), capacity=300
    )

    def plain_run():
        return run_simulation(config)

    def tapped_run():
        return run_simulation(config, recorder=recorder)

    def timed(runner):
        start = time.perf_counter()
        result = runner()
        return result, time.perf_counter() - start

    plain_best = float("inf")
    tapped_best = float("inf")
    ratios = []
    reference = None
    steps = 0
    for pair in range(9):
        if pair % 2 == 0:
            plain, plain_elapsed = timed(plain_run)
            tapped, tapped_elapsed = timed(tapped_run)
        else:
            tapped, tapped_elapsed = timed(tapped_run)
            plain, plain_elapsed = timed(plain_run)
        plain_best = min(plain_best, plain_elapsed)
        tapped_best = min(tapped_best, tapped_elapsed)
        ratios.append(tapped_elapsed / plain_elapsed)
        if reference is None:
            reference = plain
            steps = round(plain.duration / 0.01)
        assert plain == reference
        assert tapped == reference

    final = benchmark.pedantic(tapped_run, rounds=1, iterations=1)
    assert final == reference

    overhead_pct = 100.0 * (statistics.median(ratios) - 1.0)
    _results["flight_recorder_steps_per_second"] = round(steps / tapped_best, 1)
    _results["flight_recorder_plain_steps_per_second"] = round(steps / plain_best, 1)
    _results["flight_recorder_overhead_pct"] = round(overhead_pct, 2)
    _write_results()
    print(
        f"\nflight recorder overhead: {steps / tapped_best:.0f} steps/s tapped (full rate) vs "
        f"{steps / plain_best:.0f} steps/s plain ({overhead_pct:+.1f}%)"
    )


def test_bench_campaign_scaling(benchmark):
    """Parallel executor scaling curve: campaign runs/s at workers = 1/2/4.

    Records the curve into ``BENCH_throughput.fresh.json`` (the open ROADMAP
    item); single-core containers cannot show parallel scaling, so the
    case skips there rather than recording a misleading flat curve.
    Results for every worker count must be bit-identical.
    """
    if (os.cpu_count() or 1) < 2:
        pytest.skip("scaling curve needs a multi-core machine")

    config = _campaign_config(max_steps=2500)
    total = config.total_runs
    scaling = {}
    baseline = None
    for workers in (1, 2, 4):
        def run_with_workers(w=workers):
            return Campaign(config).run(workers=w)

        if workers == 4:
            start = time.perf_counter()
            results = benchmark.pedantic(run_with_workers, rounds=1, iterations=1)
            elapsed = time.perf_counter() - start
        else:
            start = time.perf_counter()
            results = run_with_workers()
            elapsed = time.perf_counter() - start
        if baseline is None:
            baseline = results
        assert results == baseline
        scaling[str(workers)] = round(total / elapsed, 2)

    _results["campaign_scaling_total_runs"] = total
    _results["campaign_scaling_runs_per_second"] = scaling
    _write_results()
    print(f"\ncampaign scaling (runs/s by workers): {scaling}")


def test_bench_cached_campaign(benchmark, tmp_path):
    """Run-cache reuse: warm campaign runs/s served from blobs, zero paid.

    Cold pass populates a fresh content-addressed cache, warm passes
    answer the same grid from disk through a *fresh* ``RunCache`` handle
    (so counters describe each pass alone).  Records the warm serving
    rate and the warm hit rate; the warm pass must pay zero simulations
    and return results bit-identical to the uncached campaign.
    """
    from repro.service import RunCache

    config = _campaign_config(max_steps=2500)
    total = config.total_runs
    cache_dir = str(tmp_path / "run-cache")

    reference = Campaign(config).run()
    cold_cache = RunCache(cache_dir)
    start = time.perf_counter()
    cold = Campaign(config).run(cache=cold_cache)
    cold_elapsed = time.perf_counter() - start
    assert cold == reference
    assert cold_cache.stats.writes == total

    warm_best = float("inf")
    warm_stats = None
    for _ in range(2):
        warm_cache = RunCache(cache_dir)
        start = time.perf_counter()
        warm = Campaign(config).run(cache=warm_cache)
        warm_best = min(warm_best, time.perf_counter() - start)
        assert warm == reference
        assert warm_cache.stats.misses == 0, warm_cache.stats.as_dict()
        assert warm_cache.stats.hits == total
        warm_stats = warm_cache.stats

    def warm_run():
        return Campaign(config).run(cache=RunCache(cache_dir))

    final = benchmark.pedantic(warm_run, rounds=1, iterations=1)
    assert final == reference

    _results["cached_campaign_total_runs"] = total
    _results["cached_campaign_cold_runs_per_s"] = round(total / cold_elapsed, 2)
    _results["cached_campaign_warm_runs_per_s"] = round(total / warm_best, 2)
    _results["cache_hit_rate"] = round(warm_stats.hit_rate, 4)
    _write_results()
    print(
        f"\ncached campaign: {total / warm_best:.2f} runs/s warm "
        f"(hit rate {warm_stats.hit_rate:.0%}) vs {total / cold_elapsed:.2f} runs/s cold "
        f"({cold_elapsed / warm_best:.1f}x, {total}-run grid, zero simulations paid warm)"
    )
