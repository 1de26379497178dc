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
:func:`opoao_race` is the race. Its picks come from the run's stream
in the per-run model and from a sampled world in the python kernel
backend.

Active nodes whose out-neighborhoods contain no inactive node can never
change the outcome; the race keeps a ``live`` set of active nodes that
still have at least one inactive out-neighbor and only picks targets for
those. The skipped nodes' picks are independent uniform draws that cannot
hit an inactive node, so dropping them leaves the process distribution
unchanged while making dense late-stage hops cheap. ``live`` is
maintained incrementally via per-node inactive-out-neighbor counters.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Dict, List, Optional, Set

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
    pick: Callable[[int, int], int],
) -> int:
    """OPOAO race: every live node picks one out-neighbor per hop.

    ``pick(node, hop)`` returns ``node``'s target at the race's step
    ``hop``. Live nodes (active, with an inactive out-neighbor) pick in
    ascending id order. A pick on an active node is wasted, and a target
    picked by several cascades goes to the earliest in
    ``seeds.priority``. Every hop is recorded, even one that activates
    nothing, until no node is live or ``max_hops`` hops have run.

    Returns:
        The number of picks made.
    """
    out = graph.out
    inn = graph.inn
    order = seeds.priority

    # inactive-out-neighbor counters for active nodes.
    inactive_out: Dict[int, int] = {}
    live: Set[int] = set()

    def enroll(node: int) -> None:
        """Start tracking a newly active node."""
        count = sum(1 for neighbor in out[node] if states[neighbor] == INACTIVE)
        if count > 0:
            inactive_out[node] = count
            live.add(node)

    def on_activated(node: int) -> None:
        """Update counters of active in-neighbors after ``node`` activates."""
        for tail in inn[node]:
            remaining = inactive_out.get(tail)
            if remaining is not None:
                if remaining == 1:
                    del inactive_out[tail]
                    live.discard(tail)
                else:
                    inactive_out[tail] = remaining - 1

    for seed in seeds.all_seeds():
        enroll(seed)

    picks = 0
    for hop in range(max_hops):
        if not live:
            break
        picks += len(live)
        targets: List[Set[int]] = [set() for _ in seeds.cascades]
        # Deterministic iteration order (sorted) keeps runs reproducible
        # under a fixed stream regardless of set-hash randomisation.
        for node in sorted(live):
            target = pick(node, hop)
            if states[target] != INACTIVE:
                continue  # repeat selection wasted on an active neighbor
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
        # All counter decrements must land before any enroll: enroll
        # counts with post-activation states, so running on_activated
        # for a co-activated out-neighbor afterwards would decrement
        # the same edge twice and silence a still-live node.
        for new in news:
            for node in new:
                on_activated(node)
        for new in news:
            for node in new:
                enroll(node)
        trace.record_cascades(news)
    return picks


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
    ) -> Callable[[int, int], int]:
        """``pick(node, hop)`` on the run's stream: a uniform out-neighbor,
        or, when ``weighted``, one drawn proportionally to edge weight."""
        out = graph.out
        randrange = rng.randrange
        if not self.weighted:
            return lambda node, hop: out[node][randrange(len(out[node]))]
        random = rng.random
        cumulative: Dict[int, List[float]] = {}

        def weighted_pick(node: int, hop: int) -> int:
            neighbors = out[node]
            if len(neighbors) == 1:
                return neighbors[randrange(1)]
            table = cumulative.get(node)
            if table is None:
                weights = accumulate(graph.out_weights[node], initial=0.0)
                table = cumulative[node] = list(weights)[1:]
            target_mass = random() * table[-1]
            lo, hi = 0, len(table) - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if table[mid] <= target_mass:
                    lo = mid + 1
                else:
                    hi = mid
            return neighbors[lo]

        return weighted_pick

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
        pick = self._picker(graph, rng)
        picks = opoao_race(graph, states, seeds, trace, max_hops, pick)
        registry = metrics()
        if registry.enabled:
            # every live node examines one sampled out-edge per step
            registry.counter("sim.node_visits").add(picks)
            registry.counter("sim.edge_visits").add(picks)
