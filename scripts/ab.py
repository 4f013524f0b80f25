"""A/B benchmark protocol: a parent ref against a change, in alternated pairs.

Usage, from the root of a checkout::

    python3 scripts/ab.py --parent HEAD --workload warm-service --pairs 10 --first-seed 1000
    python3 scripts/ab.py --parent 9b3c1e3 --change e755534 --workload attack-search \\
        --pairs 10 --first-seed 800

Each side runs ``perfbench/run.py`` from a fresh export in a temporary
directory: a ``git archive`` of ``--parent``, and for the change a copy of
the working tree's files (those git tracks or would track) or a
``git archive`` of ``--change``.  Fresh exports hold no bytecode, so
neither side's ``setup_s`` reads a stale cache.  Pair ``i`` runs both
sides on seed ``first_seed + i`` for the ``run_seconds`` of
``BENCHMARK.json``; even pairs run the parent first, odd pairs the
change.

The report has two parts:

* **End to end.**  Every pair's values, then per metric of
  ``BENCHMARK.json``: each side's median [Q1, Q3], the pairs the change
  won, and the median gain (positive is better) against the parent's
  IQR.  A metric with a bound is *within* or *beyond* it, or
  *unresolved* when either side's spread (IQR over median) exceeds the
  bound — unless every run of the change is better than every run of
  the parent.
* **Per layer.**  :data:`TRACE_ROUNDS` alternated ``--trace 1`` rounds
  per side, on seed 0 like CI's ledgers; each side's layer values are
  their medians over the rounds (:func:`median_layers`), so one noisy
  round cannot name a layer.  Untouched layers drift together with the
  host, so each time layer's change/parent ratio is divided by the
  median ratio of all time layers; count layers (frames, publishes,
  events, shares) are compared as they are.  Layers whose ratio leaves
  ``[1/(1+t), 1+t]`` for ``t =`` :data:`DRIFT_TOLERANCE` are named as
  moved beyond the common drift.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import stats  # noqa: E402

SIDES = ("parent", "change")

#: How far a layer may stray from the common drift before it is named.
#: Untouched layers were seen to spread over about -5 % to +29 % around
#: one round's drift, so a real change must clear that band.
DRIFT_TOLERANCE = 0.25

#: Seed of the traced runs (CI's traced ledgers use it too).
TRACE_SEED = 0

#: Traced rounds per side.  With one traced run per side the diff named
#: untouched layers (``search.optimizer`` at 1.51x the drift,
#: ``service.job`` at 1.41x where seven more rounds put its median ratio
#: at 1.02), so the diff compares each layer's median over the rounds.
TRACE_ROUNDS = 3


# -- pure helpers -------------------------------------------------------------


def parse_result(stdout: str) -> dict:
    """The JSON object a perfbench run prints as its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(Q1, median, Q3)``, inclusive method (exact on the sample)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _values(runs: Sequence[dict], name: str) -> List[float]:
    return [float(run["metrics"][name]["value"]) for run in runs]


def compare_metric(
    parent: Sequence[float], change: Sequence[float], better: str, bound: Optional[float]
) -> dict:
    """The paired comparison of one end-to-end metric."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)
    iqr = p_q3 - p_q1
    row = {
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med, c_q1, c_q3),
        "won": sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0),
        "pairs": len(parent),
        "gain": gain,
        "gain_share": gain / p_med if p_med else 0.0,
        "parent_iqr": iqr,
        "gain_beyond_iqr": gain > iqr,
        "verdict": None,
    }
    if bound is not None:
        spread = max(
            (p_q3 - p_q1) / p_med if p_med else 0.0,
            (c_q3 - c_q1) / c_med if c_med else 0.0,
        )
        worst_change = min(sign * value for value in change)
        best_parent = max(sign * value for value in parent)
        if worst_change > best_parent:
            row["verdict"] = "better in every run"
        elif spread > bound:
            row["verdict"] = f"unresolved (spread {100 * spread:.0f} % > bound {bound:g})"
        elif -row["gain_share"] > bound:
            row["verdict"] = f"BEYOND bound {bound:g}"
        else:
            row["verdict"] = f"within bound {bound:g}"
    return row


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def pair_table(
    parent_runs: Sequence[dict],
    change_runs: Sequence[dict],
    end_to_end: Sequence[dict],
    seeds: Sequence[int],
) -> List[str]:
    """The end-to-end report: every pair, then one summary row per metric."""
    names = [metric["name"] for metric in end_to_end]
    lines = ["pair  seed  first   " + "  ".join(f"{name} (parent -> change)" for name in names)]
    for index, (seed, parent, change) in enumerate(zip(seeds, parent_runs, change_runs)):
        first = SIDES[index % 2]
        cells = [
            f"{_fmt(parent['metrics'][name]['value'])} -> {_fmt(change['metrics'][name]['value'])}"
            for name in names
        ]
        lines.append(f"{index:>4}  {seed:>4}  {first:<6}  " + "  ".join(cells))
    lines.append("")
    for metric in end_to_end:
        name, unit = metric["name"], metric["unit"]
        parent_values = _values(parent_runs, name)
        change_values = _values(change_runs, name)
        row = compare_metric(parent_values, change_values, metric["better"], metric.get("bound"))
        p_med, p_q1, p_q3 = row["parent"]
        c_med, c_q1, c_q3 = row["change"]
        verdict = "gain > parent IQR" if row["gain_beyond_iqr"] else "gain <= parent IQR"
        lines.append(
            f"{name} ({unit}, {metric['better']} is better): "
            f"parent {_fmt(p_med)} [{_fmt(p_q1)}, {_fmt(p_q3)}] -> "
            f"change {_fmt(c_med)} [{_fmt(c_q1)}, {_fmt(c_q3)}]; "
            f"change won {row['won']}/{row['pairs']}; "
            f"gain {row['gain']:+.4g} ({100 * row['gain_share']:+.1f} %) vs parent IQR "
            f"{_fmt(row['parent_iqr'])}: {verdict}"
            + (f"; {row['verdict']}" if row["verdict"] else "")
        )
        for side, values in (("parent", parent_values), ("change", change_values)):
            lines.append(f"    {side}: {stats.describe(values, unit)}")
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        failed = sum(int(run["failed"]) for run in runs)
        correct = all(run["correct"] for run in runs)
        lines.append(f"{side}: failed {failed} in all runs, correct in every run: {correct}")
    return lines


def is_time_unit(unit: str) -> bool:
    """Whether a layer is a duration (drifts with the host) or a count."""
    return unit.split("/")[0] in ("ns", "us", "s")


def median_layers(rounds: Sequence[Dict[str, dict]]) -> Dict[str, dict]:
    """Each layer's median over traced rounds, as ``{"value", "unit"}``.

    ``rounds`` are the ``metrics`` of several traced runs of one side; a
    layer missing from any round is left out.
    """
    first = rounds[0]
    return {
        name: {
            "value": statistics.median(float(metrics[name]["value"]) for metrics in rounds),
            "unit": entry["unit"],
        }
        for name, entry in first.items()
        if all(name in metrics for metrics in rounds)
    }


def layer_diff(parent: Dict[str, dict], change: Dict[str, dict]) -> Tuple[List[str], List[str]]:
    """The traced per-layer diff: ``(report lines, layers moved beyond drift)``.

    ``parent`` and ``change`` map layer names to ``{"value", "unit"}`` (a
    traced run's ``metrics``).  The tracer's own ``trace.*`` diagnostics
    are not layers and are left out.  Layers that read 0 on both sides
    did not run and are skipped; a layer that reads 0 on one side only
    moved.
    """
    parent = {name: entry for name, entry in parent.items() if not name.startswith("trace.")}
    ratios: Dict[str, float] = {}
    for name, entry in parent.items():
        if name in change and entry["value"] > 0 and change[name]["value"] > 0:
            ratios[name] = change[name]["value"] / entry["value"]
    time_ratios = [ratio for name, ratio in ratios.items() if is_time_unit(parent[name]["unit"])]
    drift = statistics.median(time_ratios) if time_ratios else 1.0
    lines = [
        f"common drift: median change/parent ratio of {len(time_ratios)} time layers = "
        f"{drift:.3f}; tolerance {DRIFT_TOLERANCE:g}",
        f"{'layer':<40} {'parent':>12} {'change':>12} {'ratio':>7} {'vs drift':>8}",
    ]
    moved = []
    for name, entry in parent.items():
        if name not in change:
            continue
        before, after = entry["value"], change[name]["value"]
        if before == 0 and after == 0:
            continue
        if name in ratios:
            ratio = ratios[name]
            relative = ratio / drift if is_time_unit(entry["unit"]) else ratio
            beyond = not 1.0 / (1.0 + DRIFT_TOLERANCE) <= relative <= 1.0 + DRIFT_TOLERANCE
            shown = f"{ratio:7.3f} {relative:8.3f}"
        else:
            beyond = True
            shown = f"{'-':>7} {'-':>8}"
        if beyond:
            moved.append(name)
        lines.append(
            f"{name:<40} {before:12.6g} {after:12.6g} {shown}" + ("  <- moved" if beyond else "")
        )
    lines.append("moved beyond the common drift: " + (", ".join(moved) if moved else "none"))
    return lines, moved


# -- running ------------------------------------------------------------------


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def export(ref: Optional[str], dest: str) -> None:
    """A fresh copy of ``ref`` (``None``: the working tree) at ``dest``."""
    os.makedirs(dest)
    if ref is not None:
        archive = dest + ".tar"
        _git("archive", "--format=tar", "-o", archive, ref)
        with tarfile.open(archive) as handle:
            # The "data" filter refuses links and paths out of ``dest``.
            safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            handle.extractall(dest, **safe)
        os.remove(archive)
        return
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in listed.decode().split("\0"):
        source = os.path.join(ROOT, name)
        if not name or not os.path.isfile(source):
            continue  # deleted in the working tree
        target = os.path.join(dest, name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(source, target)


def run_side(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    completed = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if completed.returncode != 0:
        raise SystemExit(f"ab: {' '.join(command)} failed in {tree}:\n{completed.stderr}")
    return parse_result(completed.stdout)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent side")
    parser.add_argument("--change", help="git ref of the change side (default: the working tree)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    end_to_end, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    labels = {"parent": args.parent, "change": args.change or "working tree"}
    with tempfile.TemporaryDirectory(prefix="ab-") as workdir:
        trees = {}
        for side, ref in (("parent", args.parent), ("change", args.change)):
            trees[side] = os.path.join(workdir, side)
            export(ref, trees[side])
        seeds = [args.first_seed + index for index in range(args.pairs)]
        runs: Dict[str, List[dict]] = {side: [] for side in SIDES}
        for index, seed in enumerate(seeds):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(run_side(trees[side], args.workload, seed, seconds, 0))
            print(
                f"ab: pair {index + 1}/{args.pairs} (seed {seed}) done",
                file=sys.stderr, flush=True,
            )
        traced: Dict[str, List[dict]] = {side: [] for side in SIDES}
        for index in range(TRACE_ROUNDS):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            for side in order:
                traced[side].append(
                    run_side(trees[side], args.workload, TRACE_SEED, seconds, 1)
                )
    print(
        f"A/B {args.workload}: parent {labels['parent']} vs change {labels['change']}, "
        f"{args.pairs} pairs, seeds {seeds[0]}-{seeds[-1]}, {seconds:g} s per run"
    )
    for line in pair_table(runs["parent"], runs["change"], end_to_end, seeds):
        print(line)
    print()
    print(
        f"traced per-layer diff (--trace 1, seed {TRACE_SEED}, median of "
        f"{TRACE_ROUNDS} alternated rounds per side):"
    )
    lines, _ = layer_diff(
        *(median_layers([run["metrics"] for run in traced[side]]) for side in SIDES)
    )
    for line in lines:
        print(line)
    for side in SIDES:
        runs = traced[side]
        print(
            f"traced {side}: correct in every round {all(run['correct'] for run in runs)}, "
            f"failed {sum(int(run['failed']) for run in runs)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
