"""Fault-injection engine and experiment campaigns.

* :mod:`repro.injection.engine` — wires one complete simulation together
  (world, ADAS, attack engine, driver, hazard monitors) and runs it.
* :mod:`repro.injection.campaign` — sweeps over scenarios, initial
  distances, attack types, strategies and repetitions, with deterministic
  per-run seeding, to regenerate the paper's experiment grids; a
  campaign is its task list (``Campaign.tasks()``).
* :mod:`repro.injection.executor` — :func:`run_simulations`, the one
  fan-out of task lists (in-process or pooled, lockstep-batched,
  cache-aware, optionally supervised) with bit-identical results.
"""

from repro.injection.engine import SimulationConfig, Simulation, run_simulation
from repro.injection.campaign import CampaignConfig, Campaign
from repro.injection.executor import run_simulations

__all__ = [
    "SimulationConfig",
    "Simulation",
    "run_simulation",
    "CampaignConfig",
    "Campaign",
    "run_simulations",
]
