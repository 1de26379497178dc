"""The Opportunistic One-Activate-One (OPOAO) model (Section III.A).

Mechanics, exactly as the paper describes them:

* At every step, **every active node** ``u`` chooses one of its
  out-neighbors uniformly at random (probability ``1/d_out(u)``) as its
  activation target. The paper's Fig. 1 example shows seeds re-choosing at
  step 2 ("x chooses u and y chooses v again") and Section III.A notes "the
  speed of influence spread is slow under this model for the existence of
  repeat selection" — so selection repeats every step and may land on
  already-active neighbors, wasting the step.
* A targeted inactive node becomes active at the next step with the
  cascade of its activator; if both cascades target it in the same step,
  **P wins** (common property 2).
* Activation is progressive (common property 3).

Implementation notes
--------------------
:func:`opoao_race` is the race. It asks ``picks(nodes, hop)`` once per
hop for the targets of that hop's live nodes, in ascending id order.
The per-run model draws them from the run's stream in one
:meth:`~repro.rng.RngStream.choice_each` call (the same draws as one
``randrange`` per node); the python kernel backend reads them from a
sampled world's row for the hop.

Active nodes whose out-neighborhoods contain no inactive node can never
change the outcome; the race keeps a ``live`` set of active nodes that
still have at least one inactive out-neighbor and only picks targets for
those. The skipped nodes' picks are independent uniform draws that cannot
hit an inactive node, so dropping them leaves the process distribution
unchanged while making dense late-stage hops cheap. ``live`` is
maintained incrementally through a flat per-node list of
inactive-out-neighbor counters: a node activating decrements its
in-neighbors' counts, and an active node is live while its count is
not 0.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.diffusion.base import (
    INACTIVE,
    CascadeSet,
    DiffusionModel,
)
from repro.diffusion.trace import HopTrace
from repro.graph.compact import IndexedDiGraph
from repro.obs.registry import metrics
from repro.rng import RngStream

__all__ = ["OPOAOModel", "opoao_race"]


def opoao_race(
    graph: IndexedDiGraph,
    states: List[int],
    seeds: CascadeSet,
    trace: HopTrace,
    max_hops: int,
    picks: Callable[[List[int], int], Sequence[int]],
) -> int:
    """OPOAO race: every live node picks one out-neighbor per hop.

    ``states`` and ``trace`` start as
    :func:`~repro.diffusion.base.seeded_start` leaves them: the seeds
    are the only active nodes. ``picks(nodes, hop)`` returns the targets
    of ``nodes``, the hop's live nodes (active, with an inactive
    out-neighbor) in ascending id order, at the race's step ``hop``: one
    call per hop. A pick on an active node is wasted, and a target
    picked by several cascades goes to the earliest in
    ``seeds.priority``. Every hop is recorded, even one that activates
    nothing, until no node is live or ``max_hops`` hops have run.

    Returns:
        The number of picks made.
    """
    out = graph.out
    inn = graph.inn
    order = seeds.priority

    # Inactive out-neighbors of every node, kept exact as nodes activate;
    # the live nodes are the active ones whose count is not 0.
    inactive_out = list(map(len, out))
    live: Set[int] = set()

    def activate(nodes: List[int]) -> None:
        """Count ``nodes`` (just set active in ``states``) as active."""
        for node in nodes:
            for tail in inn[node]:
                remaining = inactive_out[tail] - 1
                inactive_out[tail] = remaining
                if not remaining:
                    live.discard(tail)
        # After every decrement: a node active this hop may have lost
        # its last inactive out-neighbor to another one.
        live.update(filter(inactive_out.__getitem__, nodes))

    activate(list(seeds.all_seeds()))
    total = 0
    for hop in range(max_hops):
        if not live:
            break
        # Sorted, so runs are reproducible under a fixed stream
        # regardless of set-hash randomisation.
        nodes = sorted(live)
        total += len(nodes)
        targets: List[Set[int]] = [set() for _ in seeds.cascades]
        for node, target in zip(nodes, picks(nodes, hop)):
            if states[target] == INACTIVE:  # else repeat selection wasted
                targets[states[node] - 1].add(target)
        # Priority resolves conflicts: later cascades in the order
        # drop targets an earlier cascade claimed this hop.
        claimed: Set[int] = set()
        for cascade in order:
            targets[cascade] -= claimed
            claimed |= targets[cascade]

        news: List[List[int]] = [sorted(chosen) for chosen in targets]
        for cascade, new in enumerate(news):
            state = cascade + 1
            for node in new:
                states[node] = state
        activate(list(chain.from_iterable(news)))
        trace.record_cascades(news)
    return total


class OPOAOModel(DiffusionModel):
    """Opportunistic One-Activate-One competitive diffusion.

    Args:
        weighted: pick each step's activation target proportionally to
            edge weight instead of uniformly (extension for tie-strength
            data; the paper's model is the uniform default).
    """

    name = "OPOAO"
    stochastic = True

    def __init__(self, weighted: bool = False) -> None:
        self.weighted = bool(weighted)
        if self.weighted:
            self.name = "OPOAO-W"

    def _picker(
        self, graph: IndexedDiGraph, rng: RngStream
    ) -> Callable[[List[int], int], List[int]]:
        """``picks(nodes, hop)`` on the run's stream: a uniform out-neighbor
        of each node, or, when ``weighted``, one drawn proportionally to
        edge weight."""
        out = graph.out
        if not self.weighted:
            choice_each = rng.choice_each
            return lambda nodes, hop: choice_each(map(out.__getitem__, nodes))
        randrange = rng.randrange
        random = rng.random
        cumulative: Dict[int, List[float]] = {}

        def weighted_picks(nodes: List[int], hop: int) -> List[int]:
            targets = []
            for node in nodes:
                neighbors = out[node]
                if len(neighbors) == 1:
                    targets.append(neighbors[randrange(1)])
                    continue
                table = cumulative.get(node)
                if table is None:
                    weights = accumulate(graph.out_weights[node], initial=0.0)
                    table = cumulative[node] = list(weights)[1:]
                mass = random() * table[-1]
                targets.append(neighbors[bisect_right(table, mass, 0, len(table) - 1)])
            return targets

        return weighted_picks

    def _spread(
        self,
        graph: IndexedDiGraph,
        states: List[int],
        seeds: CascadeSet,
        trace: HopTrace,
        rng: Optional[RngStream],
        max_hops: int,
    ) -> None:
        assert rng is not None  # guaranteed by DiffusionModel.run
        picks = opoao_race(
            graph, states, seeds, trace, max_hops, self._picker(graph, rng)
        )
        registry = metrics()
        if registry.enabled:
            # every live node examines one sampled out-edge per step
            registry.counter("sim.node_visits").add(picks)
            registry.counter("sim.edge_visits").add(picks)
