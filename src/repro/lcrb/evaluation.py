"""Protector-set evaluation: the quantities the paper's figures report.

Given an instance and a concrete protector set, :func:`evaluate_protectors`
runs the Monte-Carlo simulator and collects:

* the mean cumulative **infected-per-hop** series (Fig. 4-9's y-axis),
* final infected / protected counts,
* bridge-end outcomes: mean fraction infected, protected, untouched —
  the protection level of Definition 2.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.algorithms.base import SelectionContext
from repro.diffusion.base import DEFAULT_MAX_HOPS, DiffusionModel, SeedSets
from repro.diffusion.simulation import MonteCarloSimulator, SimulationAggregate
from repro.errors import SeedError
from repro.graph.digraph import Node
from repro.rng import RngStream
from repro.utils.stats import RunningStats

__all__ = [
    "EvaluationResult",
    "evaluate_protectors",
    "compare_evaluations",
    "resolve_seed_labels",
]


def resolve_seed_labels(indexed, labels: Iterable[Node], role: str) -> List[int]:
    """Translate seed labels to node ids, validating the whole set first.

    Every unknown label is reported at once — a typo'd seed file should
    produce one actionable :class:`~repro.errors.SeedError` naming all
    offenders, not a :class:`~repro.errors.NodeNotFoundError` for just
    the first (the pre-fix behaviour). Duplicates collapse, preserving
    first-seen order.
    """
    deduped = list(dict.fromkeys(labels))
    unknown = [label for label in deduped if not indexed.has_label(label)]
    if unknown:
        shown = ", ".join(repr(label) for label in unknown)
        raise SeedError(
            f"unknown {role} seed label(s): {shown} "
            f"({len(unknown)} of {len(deduped)} not in the graph)"
        )
    return indexed.indices(deduped)


class EvaluationResult:
    """Aggregated outcome of evaluating one protector set.

    Attributes:
        aggregate: the raw :class:`SimulationAggregate`.
        bridge_infected: stats of the per-run count of infected bridge ends.
        bridge_protected: stats of the per-run count of actively protected
            bridge ends.
        bridge_untouched: stats of bridge ends neither cascade reached.
        bridge_total: number of bridge ends in the instance.
    """

    __slots__ = (
        "aggregate",
        "bridge_infected",
        "bridge_protected",
        "bridge_untouched",
        "bridge_total",
        "final_infected_samples",
    )

    def __init__(self, aggregate: SimulationAggregate, bridge_total: int) -> None:
        self.aggregate = aggregate
        self.bridge_total = bridge_total
        self.bridge_infected = RunningStats()
        self.bridge_protected = RunningStats()
        self.bridge_untouched = RunningStats()
        #: per-replica final infected counts (for significance testing).
        self.final_infected_samples: List[int] = []

    @property
    def infected_per_hop(self) -> List[float]:
        """Mean cumulative infected nodes per hop (the figures' series)."""
        return self.aggregate.infected_per_hop

    @property
    def final_infected_mean(self) -> float:
        """Mean final infected node count."""
        return self.aggregate.final_infected.mean

    @property
    def protected_bridge_fraction(self) -> float:
        """Mean fraction of bridge ends the rumor did **not** take.

        Definition 2's protection level counts a bridge end as protected
        when it is not infected at the end of diffusion — whether actively
        protected or never reached.
        """
        if self.bridge_total == 0:
            return 1.0
        return 1.0 - self.bridge_infected.mean / self.bridge_total

    def __repr__(self) -> str:
        return (
            f"EvaluationResult(final_infected={self.final_infected_mean:.1f}, "
            f"protected_bridge_fraction={self.protected_bridge_fraction:.3f})"
        )


def evaluate_protectors(
    context: SelectionContext,
    protectors: Iterable[Node],
    model: DiffusionModel,
    runs: int = 200,
    max_hops: int = DEFAULT_MAX_HOPS,
    rng: Optional[RngStream] = None,
    backend: Optional[str] = None,
    checkpoint=None,
    executor=None,
) -> EvaluationResult:
    """Simulate an instance with a given protector set and aggregate.

    Args:
        context: the LCRB instance.
        protectors: protector originators (labels); protectors that
            coincide with rumor seeds raise, mirroring the disjoint-seeds
            requirement of Section III.
        model: diffusion model (OPOAO/DOAM/IC/LT).
        runs: Monte-Carlo replicas (deterministic models run once).
        max_hops: horizon (paper: 31 for OPOAO).
        rng: base stream (required for stochastic models).
        backend: optional kernel backend name for batched simulation
            (see :class:`~repro.diffusion.simulation.MonteCarloSimulator`).
        checkpoint: a path or :class:`~repro.exec.checkpoint.\
            CheckpointStore` for the replica batches (either engine);
            ignored for a deterministic model.
        executor: a :class:`~repro.exec.pool.ParallelExecutor` for
            process-parallel replicas — e.g. the one the CLI already
            warmed during selection, so evaluation reuses its pool and
            graph publication. Results are bit-identical to the serial
            path, with or without ``backend``. ``None`` runs serially.
    """
    indexed = context.indexed
    protector_ids = resolve_seed_labels(indexed, protectors, "protector")
    seeds = SeedSets(rumors=context.rumor_seed_ids(), protectors=protector_ids)
    end_ids = context.bridge_end_ids()
    simulator = MonteCarloSimulator(
        model,
        runs=runs,
        max_hops=max_hops,
        backend=backend,
        executor=executor,
        checkpoint=checkpoint,
    )
    aggregate = simulator.simulate(indexed, seeds, rng=rng, end_ids=end_ids)
    result = EvaluationResult(aggregate, bridge_total=len(end_ids))
    for record in aggregate.records:
        result.final_infected_samples.append(record.final_infected)
        infected, protected, untouched = record.end_counts
        result.bridge_infected.add(infected)
        result.bridge_protected.add(protected)
        result.bridge_untouched.add(untouched)
    return result


def compare_evaluations(
    left: EvaluationResult,
    right: EvaluationResult,
    rng: RngStream,
    iterations: int = 2000,
) -> dict:
    """Is ``left``'s final infected count significantly below ``right``'s?

    Bootstraps the difference of per-replica final infected means. The
    figure benchmarks' ordinal claims ("Greedy ends below Proximity") can
    be checked against sampling noise with this.

    Returns:
        dict with ``observed_diff`` (left - right; negative = left
        better), ``ci`` (bootstrap interval), ``p_left_better``, and
        ``resolved`` (the interval excludes zero).
    """
    from repro.utils.stats import bootstrap_mean_diff

    observed, interval, p_left_better = bootstrap_mean_diff(
        left.final_infected_samples,
        right.final_infected_samples,
        rng,
        iterations=iterations,
    )
    lo, hi = interval
    return {
        "observed_diff": observed,
        "ci": interval,
        "p_left_better": p_left_better,
        "resolved": lo > 0 or hi < 0,
    }
