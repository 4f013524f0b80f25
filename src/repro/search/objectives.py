"""Search objectives computed from :class:`~repro.analysis.metrics.RunResult`.

An objective maps the run results of one search point (one result per
repetition) to a single scalar score — **higher is better**.  All
objectives share a two-tier shape:

* runs that reached a hazard score ``>= 1.0``, increasing as the hazard
  arrives *faster* after activation (small Time-To-Hazard leaves the
  driver less budget to react — the paper's key metric);
* hazard-free runs score in ``[0, 1)`` from the safety margin the run
  came down to (minimum lead TTC, recorded by the kernel's record stage
  when the simulation runs with ``track_safety_margin=True``), so the
  optimizers get a gradient towards the hazard boundary before they have
  found any hazard at all.

Multi-repetition aggregation is the mean of the per-run scores; the
driver derives one deterministic seed per ``(point, repetition)`` pair,
so an objective value is a pure function of the point.
"""

import math
from typing import Optional, Sequence

from repro.analysis.metrics import RunResult


#: Characteristic scales normalising the three margin axes: a lead TTC
#: of 5 s, an ego speed of 5 m/s and a lane margin of 0.5 m each count
#: as "one unit away" from their hazard boundary.
TTC_SCALE = 5.0
SPEED_SCALE = 5.0
LANE_SCALE = 0.5


def margin_score(result: RunResult) -> float:
    """Hazard-free shaping term in ``[0, 1)`` from the recorded margins.

    Each hazard axis has its own margin (minimum lead TTC for H1,
    minimum ego speed for H2, minimum distance to the nearer lane line
    for H3); each contributes a proximity ``1 / (1 + m)`` over its
    normalised margin ``m``, and the score is the *mean* across the
    recorded axes.  The mean (rather than the minimum margin) matters
    for optimisation: axes the attack does not move contribute a
    constant, so approaching *any* hazard boundary strictly increases
    the score — there is no plateau where a constant axis masks the
    moving one.  Returns 0.0 when the run recorded no margins (margin
    tracking disabled).
    """
    proximities = []
    if result.min_ttc is not None and math.isfinite(result.min_ttc):
        proximities.append(1.0 / (1.0 + max(result.min_ttc, 0.0) / TTC_SCALE))
    if result.min_ego_speed is not None:
        proximities.append(1.0 / (1.0 + max(result.min_ego_speed, 0.0) / SPEED_SCALE))
    if result.min_lane_margin is not None:
        proximities.append(1.0 / (1.0 + max(result.min_lane_margin, 0.0) / LANE_SCALE))
    if not proximities:
        return 0.0
    return sum(proximities) / len(proximities)


class Objective:
    """Base class: per-run scoring plus mean aggregation."""

    #: Identifies the objective in search results and experiment rows.
    name: str = "abstract"
    #: Whether runs must be simulated with ``track_safety_margin=True``.
    requires_margin: bool = False

    def score_run(self, result: RunResult) -> float:
        raise NotImplementedError

    def __call__(self, results: Sequence[RunResult]) -> float:
        if not results:
            raise ValueError("objective needs at least one run result")
        return sum(self.score_run(result) for result in results) / len(results)


class HazardObjective(Objective):
    """Find *any* hazard, preferring fast ones; margin-shaped below.

    Per run: ``1 + 1/(1 + TTH)`` when a hazard occurred (TTH falls back
    to the first hazard time when the attack never activated), else the
    :func:`margin_score`.
    """

    name = "hazard"
    requires_margin = True

    def score_run(self, result: RunResult) -> float:
        if result.hazard_occurred:
            tth = result.time_to_hazard
            if tth is None:
                tth = result.first_hazard_time
            return 1.0 + 1.0 / (1.0 + max(tth or 0.0, 0.0))
        return margin_score(result)


class TimeToHazardObjective(Objective):
    """Minimise the Time-To-Hazard itself (the paper's TTH metric).

    Per run: ``1 + (horizon - TTH) / horizon`` when a hazard occurred
    with a measurable TTH (clamped at the horizon), ``1.0`` for hazards
    without one, else the margin shaping.  Distinguishes *how much*
    faster one hazardous point is than another, rather than merely that
    both are hazardous.
    """

    name = "time-to-hazard"
    requires_margin = True

    def __init__(self, horizon: float = 10.0):
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.horizon = horizon

    def score_run(self, result: RunResult) -> float:
        if not result.hazard_occurred:
            return margin_score(result)
        tth = result.time_to_hazard
        if tth is None:
            return 1.0
        return 1.0 + max(self.horizon - tth, 0.0) / self.horizon


class StealthObjective(Objective):
    """Prefer hazards the ADAS never alerted on (hazard-without-alert).

    Per run: a hazard with no alert in the whole run scores ``2 +
    1/(1 + TTH)``; an alerted hazard scores ``1``; hazard-free runs fall
    back to the margin shaping scaled by ``1/2`` (a near miss that also
    stayed quiet is not distinguishable from the result record, so the
    shaping is discounted rather than split).
    """

    name = "stealth"
    requires_margin = True

    def score_run(self, result: RunResult) -> float:
        if result.hazard_without_alert:
            tth = result.time_to_hazard
            if tth is None:
                tth = result.first_hazard_time
            return 2.0 + 1.0 / (1.0 + max(tth or 0.0, 0.0))
        if result.hazard_occurred:
            return 1.0
        return 0.5 * margin_score(result)


_OBJECTIVES = {
    HazardObjective.name: HazardObjective,
    TimeToHazardObjective.name: TimeToHazardObjective,
    StealthObjective.name: StealthObjective,
}


def objective_by_name(name: str) -> Objective:
    """Construct an objective from its registry name."""
    try:
        return _OBJECTIVES[name]()
    except KeyError:
        known = ", ".join(sorted(_OBJECTIVES))
        raise KeyError(f"unknown objective {name!r}; known objectives: {known}") from None


def first_hazard(results: Sequence[RunResult]) -> Optional[RunResult]:
    """The first repetition that reached a hazard, if any."""
    for result in results:
        if result.hazard_occurred:
            return result
    return None
