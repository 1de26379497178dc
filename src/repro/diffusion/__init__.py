"""Competitive two-cascade diffusion models and the simulation engine.

The paper (Section III) defines two models in which a rumor cascade R and a
protector cascade P spread simultaneously from disjoint seed sets, with
three shared properties: both start at step 0, P wins simultaneous
arrivals, and activation is progressive (no status ever reverts).

* :mod:`repro.diffusion.opoao` — Opportunistic One-Activate-One: every
  active node picks one uniformly random out-neighbor per step.
* :mod:`repro.diffusion.doam` — Deterministic One-Activate-Many: a newly
  active node activates all its inactive out-neighbors next step, once.
* :mod:`repro.diffusion.ic` / :mod:`repro.diffusion.lt` — competitive
  Independent Cascade and competitive Linear Threshold, the related-work
  models ([14], [16]) provided as extensions.
* :mod:`repro.diffusion.simulation` — the Monte-Carlo replica runner
  (serial, over a process pool, or resumed from a checkpoint) aggregating
  per-hop infected/protected counts over replicas.
* :mod:`repro.diffusion.timestamps` — the edge-timestamp machinery of the
  submodularity proof (Section V.A.1, Fig. 1), exposed for inspection.
"""

from repro.diffusion.arrival import doam_arrival_times, protection_slack
from repro.diffusion.base import (
    INACTIVE,
    INFECTED,
    PRIORITY_RULES,
    PROTECTED,
    CascadeSet,
    DiffusionModel,
    DiffusionOutcome,
    SeedSets,
    priority_order,
)
from repro.diffusion.doam import DOAMModel
from repro.diffusion.ic import CompetitiveICModel
from repro.diffusion.lt import CompetitiveLTModel
from repro.diffusion.opoao import OPOAOModel
from repro.diffusion.simulation import MonteCarloSimulator, SimulationAggregate
from repro.diffusion.trace import HopTrace

__all__ = [
    "INACTIVE",
    "INFECTED",
    "PROTECTED",
    "PRIORITY_RULES",
    "CascadeSet",
    "priority_order",
    "DiffusionModel",
    "DiffusionOutcome",
    "SeedSets",
    "OPOAOModel",
    "DOAMModel",
    "CompetitiveICModel",
    "CompetitiveLTModel",
    "MonteCarloSimulator",
    "SimulationAggregate",
    "HopTrace",
    "doam_arrival_times",
    "protection_slack",
]
