"""cProfile helper: where does a simulation run spend its time?

Profiles one attack-free and one attacked run through the kernel step
pipeline and prints the top cumulative functions of each, so the next
performance PR starts from data instead of guesses::

    PYTHONPATH=src python benchmarks/profile_run.py
    PYTHONPATH=src python benchmarks/profile_run.py --steps 2000 --top 30

With ``--json`` the cProfile pass is replaced by a telemetry probe run
(sampling every cycle) and the per-stage wall-time histograms are
emitted as machine-readable JSON — same data the observability layer
collects in production runs, so the two views never drift::

    PYTHONPATH=src python benchmarks/profile_run.py --json | python -m json.tool

The attacked run uses the paper's S1/70 m with a Context-Aware
Deceleration attack (driver engagement, corruption and the eavesdropper
all on the profile).

With ``--batch N`` the workload becomes N attack-free runs through the
lockstep batch executor instead of the two sequential runs, so the
batch kernel's columns land on the profile (the dense tier's CAN codec
and SoA columns from ``DENSE_MIN_ACTIVE`` rows up, every row's scalar
stages below); combined with ``--json`` the per-stage shares come from
the batch runner's own ``perf.stage.*`` histograms (one timing sample
per stage column per cycle, on both tiers) — the before/after view for
stage vectorisation work::

    PYTHONPATH=src python benchmarks/profile_run.py --batch 64 --json

With ``--crossover`` it measures where the dense tier of the batch
kernel starts to pay, the data behind ``DENSE_MIN_ACTIVE`` in
``repro/kernel/batch.py``: attack-free S1–S4 rows (1000 steps each) at
each width, best of three, with the dense tier forced on against the
scalar tier.  It prints µs per row-step per tier and the first width
from which the dense tier wins::

    PYTHONPATH=src python benchmarks/profile_run.py --crossover
"""

import argparse
import cProfile
import json
import pstats
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.core.attack_types import AttackType
from repro.core.strategies import strategy_by_name
from repro.injection.engine import SimulationConfig, run_simulation
from repro.sim.units import DT
from repro.telemetry import STAGE_METRIC, Telemetry, TelemetryConfig

#: Lockstep widths of the ``--crossover`` sweep.
DENSE_WIDTHS = (4, 8, 16, 24, 32, 48, 64)
CROSSOVER_STEPS = 1000
CROSSOVER_REPEATS = 3

#: A tier threshold no batch reaches: the dense tier is off.
_OFF = sys.maxsize


def profile_once(label: str, config: SimulationConfig, strategy_name=None, top: int = 20) -> None:
    strategy = strategy_by_name(strategy_name) if strategy_name else None
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_simulation(config, strategy)
    profiler.disable()
    print(f"\n=== {label} ===")
    print(
        f"duration {result.duration:.1f} s, hazards {sorted(result.hazards)}, "
        f"accidents {sorted(result.accidents)}, driver engaged: {result.driver_engaged}"
    )
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)


def probe_once(label: str, config: SimulationConfig, strategy_name=None) -> Dict[str, Any]:
    """One probed run → per-stage timing summary (the ``--json`` payload).

    Reuses the telemetry layer's per-stage histograms instead of a
    separate ad-hoc timer, so this benchmark reports exactly what
    :class:`repro.telemetry.ProbedPipeline` measures.  The probe times
    one stage per cycle round-robin, so ``samples`` is ~steps / stage
    count per stage and ``share`` compares equally-sampled estimates.
    """
    strategy = strategy_by_name(strategy_name) if strategy_name else None
    telemetry = Telemetry(TelemetryConfig())
    start = time.perf_counter()
    result = run_simulation(config, strategy, telemetry=telemetry)
    wall_s = time.perf_counter() - start

    snapshot = telemetry.snapshot()
    stage_rows = _stage_rows(snapshot)
    steps = int(snapshot["counters"].get("runs.steps", 0))
    return {
        "label": label,
        "scenario": str(config.scenario),
        "seed": config.seed,
        "attack_type": config.attack_type.value if config.attack_type else None,
        "steps": steps,
        "wall_seconds": wall_s,
        "steps_per_second": steps / wall_s if wall_s > 0 else 0.0,
        "duration_s": result.duration,
        "hazards": sorted(result.hazards),
        "accidents": sorted(result.accidents),
        "stages": dict(sorted(stage_rows.items(), key=lambda kv: -kv[1]["total_ns"])),
    }


def _stage_rows(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Per-stage timing summary rows from a telemetry snapshot."""
    prefix, suffix = STAGE_METRIC.split("{name}")
    stage_rows: Dict[str, Any] = {}
    total_stage_ns = 0
    for name, data in snapshot["histograms"].items():
        if not (name.startswith(prefix) and name.endswith(suffix)):
            continue
        total_stage_ns += data["sum"]
    for name, data in snapshot["histograms"].items():
        if not (name.startswith(prefix) and name.endswith(suffix)):
            continue
        stage = name[len(prefix):-len(suffix)]
        count = data["count"]
        stage_rows[stage] = {
            "samples": count,
            "total_ns": data["sum"],
            "mean_ns": data["sum"] / count if count else 0.0,
            "max_ns": data["max"],
            "share": data["sum"] / total_stage_ns if total_stage_ns else 0.0,
        }
    return stage_rows


def _batch_tasks(args) -> list:
    distance: Optional[float] = 70.0 if args.scenario in ("S1", "S2", "S3", "S4") else None
    return [
        (
            SimulationConfig(
                scenario=args.scenario,
                initial_distance=distance,
                seed=args.seed + i,
                max_steps=args.steps,
            ),
            None,
        )
        for i in range(args.batch)
    ]


def probe_batch(args) -> Dict[str, Any]:
    """One probed lockstep-batched workload → per-stage column timings.

    The batch runner times each stage *column* (all rows of one stage)
    of every cycle into the same ``perf.stage.*`` histograms the
    scalar pipeline probe uses, plus whole-cycle ``perf.batch.cycle_ns``
    rows, so scalar and batched profiles stay directly comparable.
    """
    from repro.kernel import run_batched

    telemetry = Telemetry(TelemetryConfig())
    start = time.perf_counter()
    results = run_batched(_batch_tasks(args), batch_size=args.batch, telemetry=telemetry)
    wall_s = time.perf_counter() - start

    snapshot = telemetry.snapshot()
    steps = int(snapshot["counters"].get("runs.steps", 0))
    cycle = snapshot["histograms"].get("perf.batch.cycle_ns", {})
    return {
        "label": f"batched attack-free {args.scenario} x{args.batch}",
        "scenario": args.scenario,
        "batch_size": args.batch,
        "runs": len(results),
        "steps": steps,
        "wall_seconds": wall_s,
        "steps_per_second": steps / wall_s if wall_s > 0 else 0.0,
        "cycles_sampled": int(cycle.get("count", 0)),
        "mean_cycle_ns": (cycle["sum"] / cycle["count"]) if cycle.get("count") else 0.0,
        "stages": dict(
            sorted(_stage_rows(snapshot).items(), key=lambda kv: -kv[1]["total_ns"])
        ),
    }


def profile_batch(args, top: int = 20) -> None:
    """cProfile pass over the same lockstep-batched workload."""
    from repro.kernel import run_batched

    tasks = _batch_tasks(args)
    profiler = cProfile.Profile()
    profiler.enable()
    results = run_batched(tasks, batch_size=args.batch)
    profiler.disable()
    print(f"\n=== batched attack-free {args.scenario} x{args.batch} ===")
    print(f"{len(results)} runs, batch_size={args.batch}")
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)


def _time_tiers(width: int, thresholds) -> List[float]:
    """Best-of-``CROSSOVER_REPEATS`` µs per row-step of one batch width
    under each ``DENSE_MIN_ACTIVE`` value.

    The values take turns within every repeat, so host drift hits them
    alike.
    """
    from repro.kernel import batch

    scenarios = ("S1", "S2", "S3", "S4")
    best = [float("inf")] * len(thresholds)
    for _ in range(CROSSOVER_REPEATS):
        for k, threshold in enumerate(thresholds):
            batch.DENSE_MIN_ACTIVE = threshold
            tasks = [
                (
                    SimulationConfig(
                        scenario=scenarios[i % 4],
                        initial_distance=70.0,
                        seed=i,
                        max_steps=CROSSOVER_STEPS,
                    ),
                    None,
                )
                for i in range(width)
            ]
            start = time.perf_counter()
            results = batch.run_batched(tasks, batch_size=width)
            elapsed = time.perf_counter() - start
            row_steps = sum(round(result.duration / DT) for result in results)
            best[k] = min(best[k], elapsed * 1e6 / row_steps)
    return best


def _sweep(widths: Sequence[int]) -> Optional[int]:
    """Print the dense tier's on/off table; return the first width from
    which it wins at every wider width."""
    print("\ndense tier (CAN codec and SoA columns) against the scalar tier")
    print(f"{'width':>6} {'dense':>10} {'scalar':>10}")
    break_even = None
    for width in widths:
        on, off = _time_tiers(width, (1, _OFF))
        print(f"{width:>6} {on:>10.1f} {off:>10.1f}", flush=True)
        if on >= off:
            break_even = None
        elif break_even is None:
            break_even = width
    return break_even


def crossover() -> None:
    """Measure the width at which the dense tier starts to win."""
    from repro.kernel import batch

    saved = batch.DENSE_MIN_ACTIVE
    print(
        f"Tier crossover: attack-free S1-S4 rows, {CROSSOVER_STEPS} steps, "
        f"best of {CROSSOVER_REPEATS}, us per row-step"
    )
    try:
        width = _sweep(DENSE_WIDTHS)
    finally:
        batch.DENSE_MIN_ACTIVE = saved
    measured = f"wins from {width} rows" if width is not None else "never wins in the sweep"
    print(f"\nDENSE_MIN_ACTIVE: the dense tier {measured} (threshold in use: {saved})")


def _configs(args) -> list:
    distance: Optional[float] = 70.0 if args.scenario in ("S1", "S2", "S3", "S4") else None
    return [
        (
            f"attack-free {args.scenario}",
            SimulationConfig(
                scenario=args.scenario,
                initial_distance=distance,
                seed=args.seed,
                max_steps=args.steps,
            ),
            None,
        ),
        (
            f"attacked {args.scenario} (Context-Aware Deceleration)",
            SimulationConfig(
                scenario=args.scenario,
                initial_distance=distance,
                seed=args.seed,
                attack_type=AttackType.DECELERATION,
                max_steps=args.steps,
            ),
            "Context-Aware",
        ),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=5000, help="control steps per run")
    parser.add_argument("--top", type=int, default=20, help="rows of profile output per run")
    parser.add_argument("--scenario", default="S1", help="scenario name (catalog)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit per-stage telemetry histograms as JSON instead of cProfile text",
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=0,
        metavar="N",
        help="profile N attack-free runs through the lockstep batch executor "
        "instead of the two sequential runs",
    )
    parser.add_argument(
        "--crossover",
        action="store_true",
        help="sweep batch widths with the dense tier forced on and off "
        "and print where it starts to win",
    )
    args = parser.parse_args()

    if args.crossover:
        crossover()
        return
    if args.batch:
        if args.json:
            print(json.dumps({"runs": [probe_batch(args)]}, indent=2))
        else:
            profile_batch(args, top=args.top)
        return
    if args.json:
        payload = [probe_once(label, config, name) for label, config, name in _configs(args)]
        print(json.dumps({"runs": payload}, indent=2))
        return
    for label, config, name in _configs(args):
        profile_once(label, config, name, top=args.top)


if __name__ == "__main__":
    main()
