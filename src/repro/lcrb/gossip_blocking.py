"""Rumor blocking under gossip dynamics: the protector-selection study.

The paper scores protector sets on batched cascade models (OPOAO/DOAM);
this scenario re-scores them on the message-passing gossip workload of
:mod:`repro.gossip`. For each strategy it selects a protector set on the
LCRB instance, injects it at the configured delay, and fans gossip
replicas out through :class:`~repro.gossip.runner.GossipMonteCarlo` —
producing, per strategy, the *messages-sent versus final-infected*
trade-off (gossip's natural cost axis, which the batched models cannot
see) plus the per-round infection curve.

The ``none`` baseline (no protectors) anchors both axes: it shows the
unblocked spread and the protocol's organic message cost.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.algorithms.base import ProtectorSelector, SelectionContext
from repro.gossip.config import GossipConfig
from repro.gossip.runner import GossipMonteCarlo
from repro.rng import RngStream
from repro.utils.tables import format_table
from repro.utils.validation import check_positive

__all__ = [
    "GossipBlockingResult",
    "GossipBlockingScenario",
    "GossipStrategyRow",
    "default_gossip_selectors",
]


class GossipStrategyRow(NamedTuple):
    """One strategy's aggregate outcome over all gossip replicas."""

    strategy: str
    protectors: int
    mean_infected: float
    mean_protected: float
    max_infected: int
    messages_total: int
    mean_messages: float
    events: int
    #: mean cumulative infected count at round 0..max_rounds.
    infected_series: Tuple[float, ...]


class GossipBlockingResult:
    """All strategy rows of one study, with table/JSON renderings."""

    def __init__(self, rows: List[GossipStrategyRow], replicas: int) -> None:
        self.rows = list(rows)
        self.replicas = int(replicas)

    def row(self, strategy: str) -> GossipStrategyRow:
        """The named strategy's row (KeyError when absent)."""
        for row in self.rows:
            if row.strategy == strategy:
                return row
        raise KeyError(strategy)

    def to_table(self) -> str:
        """The study as an aligned text table (CLI output)."""
        headers = [
            "strategy",
            "protectors",
            "mean infected",
            "mean protected",
            "messages/replica",
            "messages total",
        ]
        body = [
            [
                row.strategy,
                str(row.protectors),
                f"{row.mean_infected:.2f}",
                f"{row.mean_protected:.2f}",
                f"{row.mean_messages:.1f}",
                str(row.messages_total),
            ]
            for row in self.rows
        ]
        return format_table(
            headers, body, title=f"gossip blocking ({self.replicas} replicas)"
        )

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict report (``--metrics-out`` / benchmark JSON)."""
        return {
            "replicas": self.replicas,
            "strategies": [
                {
                    "strategy": row.strategy,
                    "protectors": row.protectors,
                    "mean_infected": row.mean_infected,
                    "mean_protected": row.mean_protected,
                    "max_infected": row.max_infected,
                    "messages_total": row.messages_total,
                    "mean_messages": row.mean_messages,
                    "events": row.events,
                    "infected_series": list(row.infected_series),
                }
                for row in self.rows
            ],
        }

    def __repr__(self) -> str:
        names = ", ".join(row.strategy for row in self.rows)
        return f"GossipBlockingResult({names}; replicas={self.replicas})"


def default_gossip_selectors(
    rng: RngStream,
) -> Dict[str, Optional[ProtectorSelector]]:
    """The study's standard panel: none, random, maxdegree, ris-greedy.

    Selector randomness forks off ``rng`` by strategy name, so the panel
    is deterministic given the stream and independent of dict order.
    """
    from repro.algorithms.heuristics import MaxDegreeSelector, RandomSelector
    from repro.algorithms.ris_greedy import RISGreedySelector

    return {
        "none": None,
        "random": RandomSelector(rng=rng.fork("selector", "random")),
        "maxdegree": MaxDegreeSelector(),
        "ris-greedy": RISGreedySelector(rng=rng.fork("selector", "ris-greedy")),
    }


class GossipBlockingScenario:
    """Compare protector-selection strategies under gossip dynamics.

    Args:
        config: the gossip protocol instance (protector injection delay
            included).
        runs: gossip replicas per strategy.
        budget: protector-set size each selector is asked for.
        checkpoint: forwarded to
            :class:`~repro.gossip.runner.GossipMonteCarlo` (checkpoints
            are per-strategy: the strategy's protector set is part of
            the run-key).
        executor: a :class:`~repro.exec.pool.ParallelExecutor` every
            strategy panel submits to, so the panels share one warm
            pool. ``None`` runs serially.
    """

    def __init__(
        self,
        config: GossipConfig,
        runs: int = 50,
        budget: int = 2,
        checkpoint=None,
        executor=None,
    ) -> None:
        self.config = config
        self.runs = int(check_positive(runs, "runs"))
        self.budget = int(check_positive(budget, "budget"))
        self.checkpoint = checkpoint
        self._executor = executor
        self._runner: Optional[GossipMonteCarlo] = None

    def run(
        self,
        context: SelectionContext,
        rng: RngStream,
        selectors: Optional[Dict[str, Optional[ProtectorSelector]]] = None,
    ) -> GossipBlockingResult:
        """Run every strategy on ``context`` and collect its row.

        Each strategy's replica batch runs on ``rng.fork("gossip", name)``
        — strategies are independent and reordering the panel does not
        change any row.
        """
        if selectors is None:
            selectors = default_gossip_selectors(rng)
        indexed = context.indexed
        rumor_ids = context.rumor_seed_ids()
        rows: List[GossipStrategyRow] = []
        for name, selector in selectors.items():
            if selector is None:
                protector_ids: List[int] = []
            else:
                chosen = selector.select(context, self.budget)
                protector_ids = sorted(indexed.indices(chosen))
            if self._runner is None:
                # One runner (and so one executor/pool) serves every
                # strategy panel; replica streams still fork per
                # strategy, so rows are unaffected by the sharing.
                self._runner = GossipMonteCarlo(
                    self.config,
                    runs=self.runs,
                    checkpoint=self.checkpoint,
                    executor=self._executor,
                )
            runner = self._runner
            aggregate = runner.run(
                indexed,
                rumor_ids,
                protector_ids,
                rng=rng.fork("gossip", name),
            )
            rows.append(
                GossipStrategyRow(
                    strategy=name,
                    protectors=len(protector_ids),
                    mean_infected=aggregate.mean_infected,
                    mean_protected=aggregate.mean_protected,
                    max_infected=aggregate.max_infected,
                    messages_total=aggregate.messages_total,
                    mean_messages=aggregate.mean_messages,
                    events=aggregate.events,
                    infected_series=tuple(aggregate.mean_series()),
                )
            )
        return GossipBlockingResult(rows, self.runs)

    def __repr__(self) -> str:
        return (
            f"GossipBlockingScenario({self.config.protocol}, runs={self.runs}, "
            f"budget={self.budget})"
        )
