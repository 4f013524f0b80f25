"""Scenario catalog and parametric scenario generation.

The paper evaluates on four fixed scenarios (S1–S4); this package opens
that axis:

* :mod:`repro.scenarios.catalog` — a registry of named, fully specified
  scenarios: the paper's S1–S4 plus cut-ins, cut-outs, hard brakes,
  stop-and-go traffic, curved-road variants and more.  Any catalog name
  can be used wherever ``"S1"`` is accepted (``SimulationConfig``,
  ``CampaignConfig``, the experiment harnesses).
* :mod:`repro.scenarios.sampler` — parametric scenario *families* and a
  seeded :class:`ScenarioSampler` that draws unbounded variants
  deterministically from ``(master_seed, index)``, so sampled campaigns
  stay bit-reproducible under the process pool.

The declarative building blocks (:class:`ScenarioSpec`,
:class:`ActorSpec`, :class:`ManeuverPhase`, :class:`LaneChange`) are
defined next to the simulator and re-exported here.
"""

from repro.sim.actors import LaneChange, ManeuverPhase
from repro.sim.scenarios import ActorSpec, Scenario, ScenarioSpec, build_scenario
from repro.scenarios.catalog import CATALOG, PAPER_SCENARIOS, ScenarioCatalog
from repro.scenarios.sampler import (
    DEFAULT_FAMILIES,
    ParamRange,
    ScenarioFamily,
    ScenarioSampler,
)

__all__ = [
    "ActorSpec",
    "CATALOG",
    "DEFAULT_FAMILIES",
    "LaneChange",
    "ManeuverPhase",
    "PAPER_SCENARIOS",
    "ParamRange",
    "Scenario",
    "ScenarioCatalog",
    "ScenarioFamily",
    "ScenarioSampler",
    "ScenarioSpec",
    "build_scenario",
]
