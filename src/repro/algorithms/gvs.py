"""Greedy Viral Stopper (GVS) — the related-work comparator of [26].

Nguyen et al.'s β-Node Protector problems (paper Section II) pick
protectors by *overall decontamination*: greedily add the node whose
seeding most reduces the expected number of infected nodes in the whole
network, rather than the bridge-end objective of LCRB. This module
implements that selector on this library's models so the two objectives
can be compared head-to-head (``tests/algorithms/test_gvs.py`` and the
objective-comparison example).

The estimator reuses the common-random-numbers discipline of
:class:`repro.algorithms.greedy.SigmaEstimator`: replica ``i`` always runs
on ``rng.replica(i)`` (one :class:`~repro.diffusion.simulation.Replicas`
race per estimate), making the objective a deterministic function of the
candidate set.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from repro.algorithms.base import ProtectorSelector, SelectionContext
from repro.algorithms.greedy import candidate_pool, checked_protector_ids
from repro.diffusion.base import DEFAULT_MAX_HOPS, DiffusionModel, SeedSets
from repro.diffusion.doam import DOAMModel
from repro.diffusion.simulation import Replicas
from repro.errors import SelectionError
from repro.graph.digraph import Node
from repro.rng import RngStream
from repro.utils.validation import check_fraction, check_positive

__all__ = ["InfectionEstimator", "GreedyViralStopper"]


class InfectionEstimator:
    """Coupled Monte-Carlo estimate of the expected total infections.

    Args:
        context: the LCRB instance (supplies graph and rumor seeds).
        model: diffusion model (DOAM default, as GVS works on rounds of
            deterministic spread; any model is accepted).
        runs: replicas (deterministic models run once).
        max_hops: horizon.
        rng: base stream.
    """

    def __init__(
        self,
        context: SelectionContext,
        model: Optional[DiffusionModel] = None,
        runs: int = 20,
        max_hops: int = DEFAULT_MAX_HOPS,
        rng: Optional[RngStream] = None,
    ) -> None:
        self.context = context
        self.model = model or DOAMModel()
        self.runs = 1 if not self.model.stochastic else int(check_positive(runs, "runs"))
        self.max_hops = int(check_positive(max_hops, "max_hops"))
        self.rng = rng or RngStream(name="gvs")
        self._rumor_ids = context.rumor_seed_ids()
        self._replicas = Replicas(
            context.indexed, self.model, range(self.runs), self.max_hops,
            self.rng.seed,
        )
        self.evaluations = 0

    def expected_infections(self, protectors: Iterable[Node]) -> float:
        """Mean infected-node count when ``protectors`` are seeded."""
        ids = checked_protector_ids(self.context, protectors, self._rumor_ids)
        self.evaluations += 1
        outcome = self._replicas.race(SeedSets(rumors=self._rumor_ids, protectors=ids))
        total = sum(outcome.final_infected(world) for world in range(outcome.batch))
        return total / self.runs


class GreedyViralStopper(ProtectorSelector):
    """Greedy protector selection minimising network-wide infections.

    Stopping modes mirror :class:`~repro.algorithms.greedy.GreedySelector`:

    * ``budget=k`` — exactly ``k`` protectors.
    * ``budget=None`` — add protectors until expected infections fall to
      ``beta`` times the unprotected level (the decontamination rate
      ``1 - β`` of [26]), configured at construction.

    Args:
        model: diffusion model (DOAM default).
        runs: replicas per estimate.
        max_hops: horizon.
        beta: target residual-infection fraction for the budget-free mode.
        pool: candidate pool name (see
            :func:`repro.algorithms.greedy.candidate_pool`).
        max_candidates: optional pool cap (kept in pool order).
        rng: base stream.
    """

    name = "GVS"

    def __init__(
        self,
        model: Optional[DiffusionModel] = None,
        runs: int = 20,
        max_hops: int = DEFAULT_MAX_HOPS,
        beta: float = 0.5,
        pool: str = "bbst",
        max_candidates: Optional[int] = None,
        rng: Optional[RngStream] = None,
    ) -> None:
        self.model = model or DOAMModel()
        self.runs = int(check_positive(runs, "runs"))
        self.max_hops = int(check_positive(max_hops, "max_hops"))
        self.beta = check_fraction(beta, "beta")
        self.pool = pool
        if max_candidates is not None:
            max_candidates = int(check_positive(max_candidates, "max_candidates"))
        self.max_candidates = max_candidates
        self.rng = rng or RngStream(name="gvs-selector")
        self.last_evaluations = 0

    def select(
        self, context: SelectionContext, budget: Optional[int] = None
    ) -> List[Node]:
        budget = self._check_budget(budget)
        self.last_evaluations = 0
        if budget == 0:
            return []
        estimator = InfectionEstimator(
            context,
            model=self.model,
            runs=self.runs,
            max_hops=self.max_hops,
            rng=self.rng.fork("estimator"),
        )
        pool = candidate_pool(context, self.pool)
        if self.max_candidates is not None:
            pool = pool[: self.max_candidates]
        if not pool:
            raise SelectionError("candidate pool is empty")

        baseline = estimator.expected_infections([])
        target = self.beta * baseline
        chosen: List[Node] = []
        chosen_set: Set[Node] = set()
        current = baseline
        while True:
            if budget is not None and len(chosen) >= budget:
                break
            if budget is None and current <= target:
                break
            if len(chosen) >= len(pool):
                if budget is None:
                    raise SelectionError(
                        f"pool exhausted at {current:.1f} expected infections "
                        f"(target {target:.1f})"
                    )
                break
            best_node: Optional[Node] = None
            best_value = float("inf")
            for node in pool:
                if node in chosen_set:
                    continue
                value = estimator.expected_infections(chosen + [node])
                if value < best_value:
                    best_value = value
                    best_node = node
            assert best_node is not None
            chosen.append(best_node)
            chosen_set.add(best_node)
            current = best_value
        self.last_evaluations = estimator.evaluations
        return chosen

    def __repr__(self) -> str:
        return (
            f"GreedyViralStopper(model={self.model.name}, runs={self.runs}, "
            f"beta={self.beta})"
        )
