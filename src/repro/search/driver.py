"""The budgeted search driver: generations → dense lockstep batches.

:class:`SearchDriver` owns everything around the optimizer loop:

* **generation evaluation** — every generation's unevaluated points are
  expanded into ``repetitions`` simulation tasks each and dispatched
  as one task list through
  :func:`repro.injection.executor.run_simulations` — lockstep-batched
  (``batch_size``), pooled (``workers``) or in-process, all
  bit-identical, so the search trajectory is a pure function of
  ``(space, objective, optimizer, master_seed, budget)``;
* **memoization** — re-proposed points are scored from the memo instead
  of re-simulated (optimizers converge onto their incumbents, so this
  saves real simulations), while the optimizer still receives the score;
* **budget** — the driver stops after ``budget`` *unique* points have
  been evaluated; a truncated final generation evaluates only its first
  points up to the budget;
* **audit trail** — every generation's proposals, scores and memo hits
  are recorded (:class:`GenerationRecord`), and every unique evaluation
  keeps its per-repetition seeds and outcomes (:class:`Evaluation`);
* **resume** — with a ``run_cache`` every simulated repetition is stored
  under its content fingerprint, so rerunning an interrupted (or
  smaller-budget) search on the same cache directory replays the
  optimizer against cached results and reproduces the uninterrupted
  run while paying only for the repetitions the cache does not hold.

Per-point seeds derive from ``SeedSequence([master_seed, *grid
coordinates, repetition])`` — evaluation order never enters, which is
what makes sequential, pooled and batched evaluation agree.
"""

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import RunResult
from repro.search.objectives import Objective
from repro.telemetry import Telemetry
from repro.search.optimizers import Optimizer, Told
from repro.search.space import (
    Point,
    PointKey,
    SearchSpace,
    SearchTask,
    with_safety_margin,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.journal import BoundJournal, EventJournal
    from repro.service.cache import RunCache


def point_seed(master_seed: int, key: PointKey, repetition: int) -> int:
    """The deterministic simulation seed of ``(point, repetition)``."""
    sequence = np.random.SeedSequence([master_seed, *key, repetition])
    return int(sequence.generate_state(1)[0] % (2**31))


@dataclass
class RepetitionOutcome:
    """What one repetition of one point produced (the audit record)."""

    seed: int
    score: float
    hazard: bool
    accident: bool
    hazard_without_alert: bool
    time_to_hazard: Optional[float]
    min_ttc: Optional[float]

    @classmethod
    def from_result(cls, seed: int, score: float, result: RunResult) -> "RepetitionOutcome":
        return cls(
            seed=seed,
            score=score,
            hazard=result.hazard_occurred,
            accident=result.accident_occurred,
            hazard_without_alert=result.hazard_without_alert,
            time_to_hazard=result.time_to_hazard,
            min_ttc=result.min_ttc,
        )


@dataclass
class Evaluation:
    """One unique point's evaluation (``repetitions`` simulations)."""

    index: int                  # evaluation order, 0-based
    generation: int             # generation that first proposed the point
    point: Point
    score: float
    repetitions: List[RepetitionOutcome]

    @property
    def hazard_found(self) -> bool:
        return any(outcome.hazard for outcome in self.repetitions)


@dataclass
class GenerationRecord:
    """The audit record of one optimizer generation."""

    generation: int
    points: List[Point]
    scores: List[float]
    memo_hits: List[bool]       # True where the score came from the memo


@dataclass(frozen=True)
class SearchConfig:
    """Configuration of one search run.

    Attributes:
        budget: Maximum number of *unique* points to simulate.
        repetitions: Simulations per point (each with its own derived
            seed); the objective aggregates over them.
        master_seed: Root of every derived seed.
        batch_size: Lockstep batch width for generation evaluation
            (> 1 steps a generation's tasks through the kernel together).
        workers: Process-pool width for generation evaluation; tasks
            are pickled, so decoded strategies must be picklable — the
            built-in ones are.
        stop_on_hazard: Stop as soon as an evaluation finds a hazard
            (used by evaluations-to-first-hazard comparisons and the CI
            smoke search).
        max_stalled_generations: Give up after this many consecutive
            generations that proposed nothing new (a fully converged
            optimizer re-asking its incumbent must not loop forever).
    """

    budget: int = 64
    repetitions: int = 1
    master_seed: int = 2022
    batch_size: Optional[int] = None
    workers: Optional[int] = None
    stop_on_hazard: bool = False
    max_stalled_generations: int = 32

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass
class SearchResult:
    """Everything a finished (or budget-exhausted) search produced."""

    space_name: str
    objective_name: str
    optimizer_name: str
    config: SearchConfig
    best: Optional[Evaluation]
    evaluations: List[Evaluation] = field(default_factory=list)
    trail: List[GenerationRecord] = field(default_factory=list)
    simulations_run: int = 0    # actual simulator runs this process paid for

    @property
    def evaluations_used(self) -> int:
        return len(self.evaluations)

    @property
    def first_hazard_evaluation(self) -> Optional[int]:
        """1-based count of evaluations until the first hazard (None if never)."""
        for evaluation in self.evaluations:
            if evaluation.hazard_found:
                return evaluation.index + 1
        return None


class SearchDriver:
    """Runs one optimizer against one space under one objective."""

    def __init__(
        self,
        space: SearchSpace,
        objective: Objective,
        optimizer_factory: Callable[[SearchSpace], Optimizer],
        config: SearchConfig = SearchConfig(),
        telemetry: Optional[Telemetry] = None,
        run_cache: Optional["RunCache"] = None,
        on_generation: Optional[Callable[[SearchResult], None]] = None,
        journal: "Optional[EventJournal | BoundJournal]" = None,
    ):
        self.space = space
        self.objective = objective
        self.optimizer_factory = optimizer_factory
        self.config = config
        # Optional observation: search.* counters (evaluations,
        # simulations, memo hits, generations) are pure functions of the
        # deterministic search trajectory, so they agree across the three
        # execution modes; rates land under perf.*.
        self.telemetry = telemetry
        # Optional shared run cache (repro.service.RunCache): every
        # repetition the cache already holds is served without
        # simulating, and simulations_run counts only what was paid —
        # the search trajectory itself is unchanged (bit-identical
        # results either way).
        self.run_cache = run_cache
        # Optional per-generation observer (the campaign service streams
        # progress events from it); called with the partial SearchResult
        # after every completed generation.
        self.on_generation = on_generation
        # Optional event journal: one "search.generation" record per
        # completed generation (fresh points, memo hits, budget spent),
        # plus the run cache's events, correlated with whatever fields
        # the caller bound (job_id).
        self.journal = journal

    # -- evaluation ----------------------------------------------------------

    def _build_tasks(self, point: Point) -> Tuple[List[SearchTask], List[int]]:
        """Fresh tasks (and their seeds) for every repetition of a point."""
        key = self.space.key(point)
        tasks: List[SearchTask] = []
        seeds: List[int] = []
        for repetition in range(self.config.repetitions):
            seed = point_seed(self.config.master_seed, key, repetition)
            task = self.space.decode(point, seed)
            if self.objective.requires_margin:
                task = with_safety_margin(task)
            tasks.append(task)
            seeds.append(seed)
        return tasks, seeds

    def _execute(self, tasks: Sequence[SearchTask]) -> List[RunResult]:
        """Run one generation's tasks (identical results in every mode).

        With a ``run_cache``, cached repetitions are served directly and
        only the misses are simulated.
        """
        from repro.injection.executor import run_simulations

        return run_simulations(
            tasks,
            workers=self.config.workers,
            batch_size=self.config.batch_size,
            telemetry=self.telemetry,
            cache=self.run_cache,
            journal=self.journal,
        )

    # -- the search loop -----------------------------------------------------

    def run(self) -> SearchResult:
        """Run the search to budget exhaustion (or convergence/stop).

        A rerun on the ``run_cache`` of an earlier run with the same
        space, objective and seed replays that run's simulations from
        the cache, so resuming an interrupted search (or extending its
        budget) reproduces the uninterrupted trajectory and pays only
        for what the cache does not hold.
        """
        config = self.config
        telemetry = self.telemetry
        search_start_ns = telemetry.now_ns() if telemetry is not None else 0
        optimizer = self.optimizer_factory(self.space)
        result = SearchResult(
            space_name=self.space.name,
            objective_name=self.objective.name,
            optimizer_name=optimizer.name,
            config=config,
            best=None,
        )
        memo: Dict[PointKey, Evaluation] = {}

        generation_index = 0
        stalled = 0
        stop = False
        while not stop and len(memo) < config.budget:
            generation_start_ns = telemetry.now_ns() if telemetry is not None else 0
            generation = optimizer.ask()
            if not generation:
                break  # the grid baseline is exhausted

            # Unique unevaluated points of this generation, in proposal
            # order, truncated to the remaining budget.
            fresh: List[Point] = []
            seen: set = set()
            remaining = config.budget - len(memo)
            for point in generation:
                key = self.space.key(point)
                if key in memo or key in seen:
                    continue
                if len(fresh) == remaining:
                    break
                seen.add(key)
                fresh.append(point)
            stalled = 0 if fresh else stalled + 1
            if stalled > config.max_stalled_generations:
                break

            # Evaluate the fresh points as one task list.
            tasks: List[SearchTask] = []
            seeds_by_point: List[List[int]] = []
            for point in fresh:
                point_tasks, seeds = self._build_tasks(point)
                tasks.extend(point_tasks)
                seeds_by_point.append(seeds)
            outputs: List[RunResult] = []
            paid = 0
            if tasks:
                stats = self.run_cache.stats if self.run_cache is not None else None
                paid_before = stats.misses + stats.bypasses if stats is not None else 0
                outputs = self._execute(tasks)
                # With a cache, misses and bypasses are the tasks that
                # actually hit the simulator; hits cost nothing.
                paid = (
                    stats.misses + stats.bypasses - paid_before
                    if stats is not None
                    else len(tasks)
                )
            result.simulations_run += paid

            # Account every fresh point as an evaluation, in proposal order.
            reps = config.repetitions
            for position, point in enumerate(fresh):
                runs = outputs[position * reps:(position + 1) * reps]
                evaluation = Evaluation(
                    index=len(result.evaluations),
                    generation=generation_index,
                    point=point,
                    score=self.objective(runs),
                    repetitions=[
                        RepetitionOutcome.from_result(
                            seed, self.objective.score_run(run), run
                        )
                        for seed, run in zip(seeds_by_point[position], runs)
                    ],
                )
                memo[self.space.key(point)] = evaluation
                result.evaluations.append(evaluation)
                if result.best is None or evaluation.score > result.best.score:
                    result.best = evaluation
                if config.stop_on_hazard and evaluation.hazard_found:
                    stop = True

            # Tell the optimizer every proposal the memo can score (the
            # whole generation except budget-truncated leftovers).
            told: List[Told] = []
            memo_hits: List[bool] = []
            scores: List[float] = []
            fresh_keys = {self.space.key(point) for point in fresh}
            consumed: set = set()
            for point in generation:
                key = self.space.key(point)
                evaluation = memo.get(key)
                if evaluation is None:
                    continue  # truncated by the budget; never scored
                told.append(Told(point=point, score=evaluation.score))
                # A proposal is "fresh" only at its first occurrence in
                # this generation; repeats are memo hits.
                first_occurrence = key in fresh_keys and key not in consumed
                consumed.add(key)
                memo_hits.append(not first_occurrence)
                scores.append(evaluation.score)
            optimizer.tell(told)
            result.trail.append(
                GenerationRecord(
                    generation=generation_index,
                    points=[item.point for item in told],
                    scores=scores,
                    memo_hits=memo_hits,
                )
            )
            if telemetry is not None:
                metrics = telemetry.metrics
                metrics.counter("search.generations").inc()
                metrics.counter("search.evaluations").inc(len(fresh))
                metrics.counter("search.simulations").inc(paid)
                metrics.counter("search.memo_hits").inc(sum(memo_hits))
                if telemetry.tracer is not None:
                    telemetry.tracer.add_complete(
                        "search.generation",
                        generation_start_ns,
                        telemetry.now_ns() - generation_start_ns,
                        category="search",
                        args={
                            "generation": generation_index,
                            "fresh": len(fresh),
                            "memo_hits": sum(memo_hits),
                        },
                    )
            if self.journal is not None:
                self.journal.emit(
                    "search.generation",
                    generation=generation_index,
                    fresh=len(fresh),
                    memo_hits=sum(memo_hits),
                    evaluations=len(result.evaluations),
                    simulations=result.simulations_run,
                    best_score=result.best.score if result.best is not None else None,
                )
            generation_index += 1
            if self.on_generation is not None:
                self.on_generation(result)

        if telemetry is not None:
            metrics = telemetry.metrics
            if result.best is not None:
                metrics.gauge("search.best_score").set(result.best.score)
                # Evaluations spent after the incumbent was found — how
                # far the search has stalled (0 = still improving).
                metrics.gauge("search.evals_since_improvement").set(
                    float(len(result.evaluations) - (result.best.index + 1))
                )
            wall_s = (telemetry.now_ns() - search_start_ns) / 1e9
            if wall_s > 0.0 and result.evaluations:
                metrics.gauge("perf.search.evals_per_s").set(
                    len(result.evaluations) / wall_s
                )
            if telemetry.tracer is not None:
                telemetry.tracer.add_complete(
                    "search",
                    search_start_ns,
                    telemetry.now_ns() - search_start_ns,
                    category="search",
                    args={
                        "optimizer": result.optimizer_name,
                        "evaluations": len(result.evaluations),
                        "simulations": result.simulations_run,
                    },
                )
        return result


def audit_summary(result: SearchResult) -> Dict[str, Any]:
    """A compact JSON-safe summary of a finished search."""
    return {
        "space": result.space_name,
        "objective": result.objective_name,
        "optimizer": result.optimizer_name,
        "budget": result.config.budget,
        "evaluations_used": result.evaluations_used,
        "simulations_run": result.simulations_run,
        "generations": len(result.trail),
        "first_hazard_evaluation": result.first_hazard_evaluation,
        "best_score": None if result.best is None else result.best.score,
        "best_point": None if result.best is None else list(result.best.point),
    }
