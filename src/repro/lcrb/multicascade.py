"""K-cascade rumor-blocking scenarios over the generalized diffusion core.

The paper's model is one rumor versus one positive campaign (K=2). Two
questions from the follow-up literature need more cascades:

* **Distributed blocking** (arXiv:1711.07412): several positive
  campaigns each pick their own blocking seeds *without coordinating*.
  :class:`DistributedBlockingScenario` runs each campaign's greedy
  selection independently, races all K cascades, and reports the **price
  of non-cooperation** — the ratio of the distributed mean infected count
  to the one a centralized planner with the pooled budget achieves.
* **Impression counting** (arXiv:2303.10068): a node is not won by
  whoever touches it but by whoever *dominates its impressions* — a
  weighted count of activated in-neighbors. :class:`ImpressionScenario`
  scores a K-cascade race by the expected number of rumor-dominated
  nodes under a domination threshold.

Both scenarios come with **exact small-graph oracles**: the live-edge
enumeration helpers at the bottom compute the same objectives by summing
over all ``2^|E|`` deterministic worlds, which is what the scenario tests
check the Monte-Carlo estimates (and the kernel backends) against.
"""

from __future__ import annotations

from itertools import product
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.algorithms.base import ProtectorSelector, SelectionContext
from repro.diffusion.base import (
    DEFAULT_MAX_HOPS,
    INACTIVE,
    CascadeSet,
    DiffusionModel,
    SeedSets,
)
from repro.diffusion.simulation import MonteCarloSimulator
from repro.errors import SeedError, ValidationError
from repro.exec.checkpoint import run_key, run_replicas
from repro.graph.compact import IndexedDiGraph
from repro.graph.digraph import Node
from repro.lcrb.evaluation import resolve_seed_labels
from repro.rng import RngStream
from repro.utils.stats import RunningStats
from repro.utils.tables import format_table
from repro.utils.validation import check_positive

__all__ = [
    "CampaignSelection",
    "DistributedBlockingResult",
    "DistributedBlockingScenario",
    "ImpressionResult",
    "ImpressionScenario",
    "impression_counts",
    "dominated_count",
    "exact_race",
    "exact_cascade_expectation",
    "exact_dominated_expectation",
]


def resolve_campaign_seeds(
    indexed: IndexedDiGraph,
    campaigns: Sequence[Iterable[Node]],
    rumor_ids: Sequence[int],
) -> List[List[int]]:
    """Validate per-campaign seed labels and translate them to node ids.

    Each campaign's labels get the same all-at-once validation as
    :func:`~repro.lcrb.evaluation.resolve_seed_labels` (every unknown
    label named in one :class:`~repro.errors.SeedError`); overlap between
    campaigns or with the rumor seeds is left to
    :class:`~repro.diffusion.base.CascadeSet` so the message matches the
    engine's.
    """
    rumor_set = set(rumor_ids)
    resolved: List[List[int]] = []
    for index, labels in enumerate(campaigns):
        ids = resolve_seed_labels(indexed, labels, f"campaign {index + 1}")
        overlap = rumor_set & set(ids)
        if overlap:
            raise SeedError(
                f"campaign {index + 1} seeds overlap the rumor seeds: "
                f"{sorted(overlap)[:5]}"
            )
        resolved.append(ids)
    return resolved


# -- distributed blocking ------------------------------------------------------


class CampaignSelection(NamedTuple):
    """One positive campaign's independent pick, before and after dedup."""

    campaign: int
    #: node ids the campaign's own greedy run chose.
    chosen: Tuple[int, ...]
    #: the subset it actually fields (earlier campaigns claim duplicates).
    kept: Tuple[int, ...]

    @property
    def wasted(self) -> int:
        """Seeds spent on nodes an earlier campaign already took."""
        return len(self.chosen) - len(self.kept)


class DistributedBlockingResult:
    """Outcome of one distributed-vs-centralized comparison.

    Attributes:
        selections: per-campaign picks (dedup order = cascade order).
        distributed_mean_infected: mean final rumor count, K-cascade race.
        centralized_mean_infected: mean final rumor count when one planner
            spends the pooled budget in a single two-cascade race.
        price_of_noncooperation: ``distributed / centralized`` (``None``
            when the centralized planner already reaches zero infections
            but the distributed campaigns do not — the ratio diverges).
        distributed_series / centralized_series: mean cumulative infected
            per hop (the figures' y-axis).
    """

    def __init__(
        self,
        selections: List[CampaignSelection],
        distributed_mean_infected: float,
        centralized_mean_infected: float,
        distributed_series: List[float],
        centralized_series: List[float],
        runs: int,
        priority: Tuple[int, ...],
    ) -> None:
        self.selections = list(selections)
        self.distributed_mean_infected = float(distributed_mean_infected)
        self.centralized_mean_infected = float(centralized_mean_infected)
        self.distributed_series = list(distributed_series)
        self.centralized_series = list(centralized_series)
        self.runs = int(runs)
        self.priority = tuple(priority)

    @property
    def wasted_budget(self) -> int:
        """Total seeds lost to duplicated (uncoordinated) picks."""
        return sum(selection.wasted for selection in self.selections)

    @property
    def price_of_noncooperation(self) -> Optional[float]:
        if self.centralized_mean_infected > 0.0:
            return self.distributed_mean_infected / self.centralized_mean_infected
        if self.distributed_mean_infected == 0.0:
            return 1.0
        return None

    def to_table(self) -> str:
        """The comparison as an aligned text table (CLI output)."""
        body = [
            [
                f"campaign {selection.campaign}",
                str(len(selection.chosen)),
                str(len(selection.kept)),
                str(selection.wasted),
            ]
            for selection in self.selections
        ]
        price = self.price_of_noncooperation
        body.append(
            [
                "price of non-cooperation",
                f"{self.distributed_mean_infected:.2f}",
                f"{self.centralized_mean_infected:.2f}",
                "inf" if price is None else f"{price:.3f}",
            ]
        )
        return format_table(
            ["row", "chosen/distributed", "kept/centralized", "wasted/price"],
            body,
            title=f"distributed blocking ({self.runs} replicas)",
        )

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict report (``--json`` / benchmark output)."""
        return {
            "runs": self.runs,
            "priority": list(self.priority),
            "campaigns": [
                {
                    "campaign": selection.campaign,
                    "chosen": list(selection.chosen),
                    "kept": list(selection.kept),
                    "wasted": selection.wasted,
                }
                for selection in self.selections
            ],
            "wasted_budget": self.wasted_budget,
            "distributed_mean_infected": self.distributed_mean_infected,
            "centralized_mean_infected": self.centralized_mean_infected,
            "price_of_noncooperation": self.price_of_noncooperation,
            "distributed_series": self.distributed_series,
            "centralized_series": self.centralized_series,
        }

    def __repr__(self) -> str:
        price = self.price_of_noncooperation
        return (
            f"DistributedBlockingResult(campaigns={len(self.selections)}, "
            f"price={'inf' if price is None else format(price, '.3f')})"
        )


#: builds campaign ``index``'s selector given its private stream.
SelectorFactory = Callable[[int, RngStream], ProtectorSelector]


class DistributedBlockingScenario:
    """Several positive campaigns block a rumor without coordinating.

    Each of the ``campaigns`` positive campaigns runs its own greedy
    selection of ``budget`` seeds against the *same* instance — blind to
    the other campaigns — then all K cascades race at once. Duplicated
    picks are resolved by cascade order (the earlier campaign keeps the
    node; the later one has simply wasted that seed). The centralized
    baseline gives one planner the pooled ``campaigns * budget`` and runs
    the paper's two-cascade race.

    Args:
        model: diffusion model for both selection and evaluation.
        campaigns: number of positive campaigns (K - 1, at least 1).
        budget: seeds per campaign.
        runs: Monte-Carlo replicas per evaluation.
        select_runs: coupled replicas per greedy sigma estimate.
        max_hops: horizon per run.
        priority: cascade tie-break rule or explicit permutation.
        selector_factory: optional override building each campaign's
            selector (campaign index, private stream); the default is
            :class:`~repro.algorithms.greedy.GreedySelector` on ``model``.
            The centralized planner uses campaign index ``-1``.
        campaign_seeds: optional explicit per-campaign seed labels,
            skipping selection entirely (validated all-at-once per
            campaign).
    """

    def __init__(
        self,
        model: DiffusionModel,
        campaigns: int = 2,
        budget: int = 2,
        runs: int = 100,
        select_runs: int = 8,
        max_hops: int = DEFAULT_MAX_HOPS,
        priority: Union[str, Sequence[int]] = "positives-first",
        selector_factory: Optional[SelectorFactory] = None,
        campaign_seeds: Optional[Sequence[Iterable[Node]]] = None,
    ) -> None:
        self.model = model
        self.campaigns = int(check_positive(campaigns, "campaigns"))
        self.budget = int(check_positive(budget, "budget"))
        self.runs = int(check_positive(runs, "runs"))
        self.select_runs = int(check_positive(select_runs, "select_runs"))
        self.max_hops = int(check_positive(max_hops, "max_hops"))
        self.priority = priority
        self.selector_factory = selector_factory
        if campaign_seeds is not None and len(campaign_seeds) != self.campaigns:
            raise ValidationError(
                f"campaign_seeds has {len(campaign_seeds)} entries for "
                f"{self.campaigns} campaigns"
            )
        self.campaign_seeds = campaign_seeds

    def _selector(self, campaign: int, rng: RngStream) -> ProtectorSelector:
        if self.selector_factory is not None:
            return self.selector_factory(campaign, rng)
        from repro.algorithms.greedy import GreedySelector

        return GreedySelector(
            model=self.model,
            runs=self.select_runs,
            max_hops=self.max_hops,
            rng=rng,
        )

    def _campaign_picks(
        self, context: SelectionContext, rng: RngStream
    ) -> List[List[int]]:
        """Each campaign's independent choice, as node ids (pre-dedup)."""
        indexed = context.indexed
        if self.campaign_seeds is not None:
            return resolve_campaign_seeds(
                indexed, self.campaign_seeds, context.rumor_seed_ids()
            )
        picks: List[List[int]] = []
        for campaign in range(self.campaigns):
            selector = self._selector(campaign, rng.fork("campaign", campaign))
            chosen = selector.select(context, self.budget)
            picks.append(indexed.indices(dict.fromkeys(chosen)))
        return picks

    def _mean_infected(
        self,
        indexed: IndexedDiGraph,
        seeds: CascadeSet,
        rng: RngStream,
    ) -> Tuple[float, List[float]]:
        """Mean final rumor count + mean infected-per-hop series."""
        simulator = MonteCarloSimulator(
            self.model, runs=self.runs, max_hops=self.max_hops
        )
        series = simulator.simulate(indexed, seeds, rng=rng).infected_per_hop
        return series[-1], series

    def run(
        self, context: SelectionContext, rng: RngStream
    ) -> DistributedBlockingResult:
        """Select per campaign, race all cascades, compare to centralized.

        Both evaluations share the replica streams (common random
        numbers), so the price ratio is not inflated by sampling noise.
        """
        indexed = context.indexed
        rumor_ids = context.rumor_seed_ids()
        picks = self._campaign_picks(context, rng)

        taken = set(rumor_ids)
        cascades: List[Sequence[int]] = [rumor_ids]
        selections: List[CampaignSelection] = []
        for campaign, chosen in enumerate(picks, start=1):
            kept = [node for node in chosen if node not in taken]
            taken.update(kept)
            cascades.append(kept)
            selections.append(
                CampaignSelection(campaign, tuple(chosen), tuple(kept))
            )

        eval_rng = rng.fork("eval")
        distributed_seeds = CascadeSet(cascades, priority=self.priority)
        distributed_mean, distributed_series = self._mean_infected(
            indexed, distributed_seeds, eval_rng
        )

        if self.campaign_seeds is not None:
            pooled = [node for chosen in picks for node in chosen]
            central_ids = [
                node for node in dict.fromkeys(pooled) if node not in rumor_ids
            ]
        else:
            central = self._selector(-1, rng.fork("campaign", "central"))
            chosen = central.select(context, self.campaigns * self.budget)
            central_ids = indexed.indices(dict.fromkeys(chosen))
        centralized_seeds = SeedSets(rumors=rumor_ids, protectors=central_ids)
        centralized_mean, centralized_series = self._mean_infected(
            indexed, centralized_seeds, eval_rng
        )

        return DistributedBlockingResult(
            selections,
            distributed_mean,
            centralized_mean,
            distributed_series,
            centralized_series,
            runs=self.runs,
            priority=distributed_seeds.priority,
        )

    def __repr__(self) -> str:
        return (
            f"DistributedBlockingScenario(model={self.model.name}, "
            f"campaigns={self.campaigns}, budget={self.budget})"
        )


# -- impression counting -------------------------------------------------------


def impression_counts(
    indexed: IndexedDiGraph,
    states: Sequence[int],
    weights: Sequence[float],
    node: int,
) -> List[float]:
    """Per-cascade weighted impressions one node receives.

    Cascade ``k`` impresses ``node`` with weight ``weights[k]`` once per
    cascade-``k`` active in-neighbor, plus once for ``node`` itself when
    cascade ``k`` holds it — so activated nodes count their own voice.
    """
    counts = [0] * len(weights)
    state = states[node]
    if state != INACTIVE:
        counts[state - 1] += 1
    for tail in indexed.inn[node]:
        tail_state = states[tail]
        if tail_state != INACTIVE:
            counts[tail_state - 1] += 1
    return [weights[k] * counts[k] for k in range(len(weights))]


def dominated_count(
    indexed: IndexedDiGraph,
    states: Sequence[int],
    weights: Sequence[float],
    threshold: float,
) -> int:
    """Nodes whose impressions the rumor dominates in this outcome.

    A node is rumor-dominated when the rumor's weighted impressions reach
    ``threshold`` *and* strictly exceed all positive campaigns combined.
    """
    dominated = 0
    for node in range(indexed.node_count):
        impressions = impression_counts(indexed, states, weights, node)
        rumor = impressions[0]
        if rumor >= threshold and rumor > sum(impressions[1:]):
            dominated += 1
    return dominated


class ImpressionResult:
    """Aggregated impression-domination outcome of one K-cascade race.

    Attributes:
        dominated: stats of the per-run rumor-dominated node count (the
            scenario's objective).
        cascade_means: mean final activation count per cascade.
        weights / threshold: the scoring configuration evaluated.
    """

    def __init__(
        self,
        dominated: RunningStats,
        cascade_means: List[float],
        weights: Sequence[float],
        threshold: float,
        runs: int,
        priority: Tuple[int, ...],
    ) -> None:
        self.dominated = dominated
        self.cascade_means = list(cascade_means)
        self.weights = list(weights)
        self.threshold = float(threshold)
        self.runs = int(runs)
        self.priority = tuple(priority)

    @property
    def mean_dominated(self) -> float:
        return self.dominated.mean

    def to_table(self) -> str:
        body = [
            ["rumor-dominated nodes (mean)", f"{self.mean_dominated:.2f}"],
            ["rumor-dominated nodes (max)", f"{self.dominated.maximum:.0f}"],
            ["threshold", f"{self.threshold:g}"],
        ]
        for cascade, mean in enumerate(self.cascade_means):
            name = "rumor" if cascade == 0 else f"campaign {cascade}"
            body.append(
                [
                    f"{name} (w={self.weights[cascade]:g})",
                    f"{mean:.2f} mean nodes",
                ]
            )
        return format_table(
            ["quantity", "value"],
            body,
            title=f"impression domination ({self.runs} replicas)",
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "runs": self.runs,
            "priority": list(self.priority),
            "weights": self.weights,
            "threshold": self.threshold,
            "mean_dominated": self.mean_dominated,
            "max_dominated": self.dominated.maximum,
            "cascade_means": self.cascade_means,
        }

    def __repr__(self) -> str:
        return (
            f"ImpressionResult(mean_dominated={self.mean_dominated:.2f}, "
            f"runs={self.runs})"
        )


class ImpressionScenario:
    """Score a K-cascade race by expected rumor-dominated impressions.

    Args:
        model: diffusion model producing the final states.
        weights: per-cascade impression weight, rumor first; length fixes
            K, and must cover every campaign passed to :meth:`run`.
        threshold: minimum rumor impression mass to dominate a node.
        runs: Monte-Carlo replicas.
        max_hops: horizon per run.
        priority: cascade tie-break rule or explicit permutation.
        checkpoint: a path or :class:`~repro.exec.checkpoint.\
            CheckpointStore`; completed replicas are saved under an
            ``impressions`` entry whose run key covers the cascade seed
            sets, priority, weights, and threshold — a checkpoint from
            any other configuration refuses to resume. ``runs`` stays
            outside the key, so a shorter run's prefix seeds a longer one.
    """

    def __init__(
        self,
        model: DiffusionModel,
        weights: Sequence[float],
        threshold: float = 1.0,
        runs: int = 100,
        max_hops: int = DEFAULT_MAX_HOPS,
        priority: Union[str, Sequence[int]] = "positives-first",
        checkpoint=None,
    ) -> None:
        self.model = model
        self.weights = [float(weight) for weight in weights]
        if len(self.weights) < 2:
            raise ValidationError(
                f"need a weight per cascade (rumor + campaigns); "
                f"got {len(self.weights)}"
            )
        if any(weight <= 0.0 for weight in self.weights):
            raise ValidationError("impression weights must be positive")
        self.threshold = float(threshold)
        if self.threshold <= 0.0:
            raise ValidationError("threshold must be positive")
        self.runs = int(check_positive(runs, "runs"))
        self.max_hops = int(check_positive(max_hops, "max_hops"))
        self.priority = priority
        self.checkpoint = checkpoint

    def build_seeds(
        self, context: SelectionContext, campaigns: Sequence[Iterable[Node]]
    ) -> CascadeSet:
        """Validate campaign labels and assemble the cascade seed sets."""
        if len(campaigns) != len(self.weights) - 1:
            raise ValidationError(
                f"{len(campaigns)} campaign seed set(s) for "
                f"{len(self.weights) - 1} campaign weight(s)"
            )
        rumor_ids = context.rumor_seed_ids()
        campaign_ids = resolve_campaign_seeds(
            context.indexed, campaigns, rumor_ids
        )
        return CascadeSet([rumor_ids] + campaign_ids, priority=self.priority)

    def _run_key(self, indexed: IndexedDiGraph, seeds: CascadeSet, rng) -> str:
        return run_key(
            kind="impressions",
            model=self.model.name,
            seed=rng.seed,
            max_hops=self.max_hops,
            nodes=indexed.node_count,
            edges=indexed.edge_count,
            cascades=[sorted(cascade) for cascade in seeds.cascades],
            priority=list(seeds.priority),
            weights=self.weights,
            threshold=self.threshold,
        )

    def run(
        self,
        context: SelectionContext,
        campaigns: Sequence[Iterable[Node]],
        rng: RngStream,
    ) -> ImpressionResult:
        """Race the cascades ``runs`` times and aggregate domination."""
        indexed = context.indexed
        seeds = self.build_seeds(context, campaigns)
        stochastic = self.model.stochastic

        def run_range(indices: List[int]) -> List[Tuple[int, ...]]:
            rows = []  # (dominated, *cascade_counts) per replica
            for replica in indices:
                outcome = self.model.run(
                    indexed,
                    seeds,
                    rng=rng.replica(replica) if stochastic else None,
                    max_hops=self.max_hops,
                )
                dominated = dominated_count(
                    indexed, outcome.states, self.weights, self.threshold
                )
                rows.append((dominated, *outcome.cascade_counts()))
            return rows

        rows = run_replicas(
            run_range,
            self.runs if stochastic else 1,
            self.checkpoint,
            "impressions",
            lambda: self._run_key(indexed, seeds, rng),
            field="rows",
        )

        dominated = RunningStats()
        cascade_totals = [0.0] * seeds.cascade_count
        for row in rows:
            dominated.add(row[0])
            for cascade in range(seeds.cascade_count):
                cascade_totals[cascade] += row[1 + cascade]
        cascade_means = [total / len(rows) for total in cascade_totals]
        return ImpressionResult(
            dominated,
            cascade_means,
            self.weights,
            self.threshold,
            runs=len(rows),
            priority=seeds.priority,
        )

    def __repr__(self) -> str:
        return (
            f"ImpressionScenario(model={self.model.name}, "
            f"K={len(self.weights)}, threshold={self.threshold:g})"
        )


# -- exact live-edge oracles ---------------------------------------------------


def exact_race(
    graph: IndexedDiGraph,
    seeds: CascadeSet,
    live: Sequence[bool],
    max_hops: int = DEFAULT_MAX_HOPS,
) -> List[int]:
    """Final states of the K-cascade race on one fixed live-edge world.

    ``live`` is indexed by CSR edge position. Deliberately a simple
    textbook BFS race — the independent ground truth the batched kernels
    and the per-run models are differentially tested against.
    """
    indptr = graph.csr().indptr
    states = [INACTIVE] * graph.node_count
    for cascade, members in enumerate(seeds.cascades):
        for node in members:
            states[node] = cascade + 1
    fronts = [sorted(members) for members in seeds.cascades]
    for _hop in range(max_hops):
        targets: List[set] = [set() for _ in fronts]
        claimed: set = set()
        for cascade in seeds.priority:
            for node in fronts[cascade]:
                base = indptr[node]
                for position, head in enumerate(graph.out[node]):
                    if (
                        live[base + position]
                        and states[head] == INACTIVE
                        and head not in claimed
                    ):
                        targets[cascade].add(head)
            claimed |= targets[cascade]
        if not claimed:
            break
        for cascade, chosen in enumerate(targets):
            for node in chosen:
                states[node] = cascade + 1
        fronts = [sorted(chosen) for chosen in targets]
    return states


def _enumerate_worlds(
    graph: IndexedDiGraph, probability: float
) -> Iterable[Tuple[Tuple[bool, ...], float]]:
    """All ``2^|E|`` live-edge masks with their IC probabilities."""
    edge_count = graph.edge_count
    if edge_count > 20:
        raise ValidationError(
            f"exact enumeration over 2^{edge_count} worlds is intractable; "
            f"use graphs with at most 20 edges"
        )
    for mask in product((False, True), repeat=edge_count):
        weight = 1.0
        for bit in mask:
            weight *= probability if bit else (1.0 - probability)
        yield mask, weight


def exact_cascade_expectation(
    graph: IndexedDiGraph,
    seeds: CascadeSet,
    probability: float,
    max_hops: int = DEFAULT_MAX_HOPS,
) -> List[float]:
    """Exact expected per-cascade final counts under live-edge IC.

    Sums the deterministic race over every live-edge world, weighted by
    ``p^live * (1-p)^dead`` — the quantity Monte-Carlo IC estimates.
    """
    expectations = [0.0] * seeds.cascade_count
    for mask, weight in _enumerate_worlds(graph, probability):
        states = exact_race(graph, seeds, mask, max_hops)
        for state in states:
            if state != INACTIVE:
                expectations[state - 1] += weight
    return expectations


def exact_dominated_expectation(
    graph: IndexedDiGraph,
    seeds: CascadeSet,
    weights: Sequence[float],
    threshold: float,
    probability: float,
    max_hops: int = DEFAULT_MAX_HOPS,
) -> float:
    """Exact expected rumor-dominated node count under live-edge IC.

    The :class:`ImpressionScenario` objective by full enumeration — what
    its Monte-Carlo estimate must converge to on small graphs.
    """
    expectation = 0.0
    for mask, weight in _enumerate_worlds(graph, probability):
        states = exact_race(graph, seeds, mask, max_hops)
        expectation += weight * dominated_count(graph, states, weights, threshold)
    return expectation
