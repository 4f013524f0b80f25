"""Adaptive attack-strategy optimization: budgeted black-box search over
the batched simulation kernel.

The packages splits into four pieces:

* :mod:`repro.search.space` — declarative, quantized parameter spaces
  decoding to ``(SimulationConfig, AttackStrategy)`` tasks;
* :mod:`repro.search.objectives` — scalar objectives over
  :class:`~repro.analysis.metrics.RunResult` (hazards, TTH, stealth,
  min-TTC margin shaping);
* :mod:`repro.search.optimizers` — seeded generation-oriented
  optimizers (grid baseline, random, hill-climb, CEM);
* :mod:`repro.search.driver` — the budgeted driver: memoized,
  resumable through the run cache, evaluating each generation as one
  task list (one dense lockstep batch when batched).
"""

from repro.search.driver import (
    Evaluation,
    GenerationRecord,
    RepetitionOutcome,
    SearchConfig,
    SearchDriver,
    SearchResult,
    audit_summary,
    point_seed,
)
from repro.search.objectives import (
    HazardObjective,
    Objective,
    StealthObjective,
    TimeToHazardObjective,
    margin_score,
    objective_by_name,
)
from repro.search.optimizers import (
    CrossEntropy,
    GridSearch,
    HillClimb,
    Optimizer,
    RandomSearch,
    Told,
    make_optimizer,
    optimizer_names,
)
from repro.search.space import (
    Categorical,
    Continuous,
    Point,
    PointKey,
    SearchSpace,
    attack_search_space,
    with_safety_margin,
)

__all__ = [
    "Categorical",
    "Continuous",
    "CrossEntropy",
    "Evaluation",
    "GenerationRecord",
    "GridSearch",
    "HazardObjective",
    "HillClimb",
    "Objective",
    "Optimizer",
    "Point",
    "PointKey",
    "RandomSearch",
    "RepetitionOutcome",
    "SearchConfig",
    "SearchDriver",
    "SearchResult",
    "SearchSpace",
    "StealthObjective",
    "TimeToHazardObjective",
    "Told",
    "attack_search_space",
    "audit_summary",
    "make_optimizer",
    "margin_score",
    "objective_by_name",
    "optimizer_names",
    "point_seed",
    "with_safety_margin",
]
