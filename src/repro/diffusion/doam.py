"""The Deterministic One-Activate-Many (DOAM) model (Section III.B).

Mechanics:

* When a node first becomes active at step ``t``, **all** of its currently
  inactive out-neighbors become active at ``t + 1``; each node influences
  its neighbors exactly once (only the newly-active front spreads).
* Simultaneous arrival of several cascades at a node: the earliest
  cascade in the priority order claims it (**P wins** under the default
  ``positives-first`` order when K=2).
* Progressive activation; the process is fully deterministic given seeds —
  it is a simultaneous multi-source BFS with priority tie-breaking, and
  the rumor arrival time at any node equals its BFS distance from the
  nearest rumor seed *unless* a positive front reaches it no later.

The determinism is what makes LCRB-D reducible to Set Cover (Theorem 2):
whether a candidate protector saves a bridge end depends only on hop
distances, not on chance.

:func:`bfs_race` is that race; competitive IC runs it with a live-edge
test, and the python kernel backend with a sampled world's live row.
"""

from __future__ import annotations

from typing import Any, List, Optional, Set

from repro.diffusion.base import (
    INACTIVE,
    CascadeSet,
    DiffusionModel,
)
from repro.diffusion.trace import HopTrace
from repro.graph.compact import IndexedDiGraph
from repro.obs.registry import metrics
from repro.rng import RngStream

__all__ = ["DOAMModel", "bfs_race"]


def bfs_race(
    graph: IndexedDiGraph,
    states: List[int],
    seeds: CascadeSet,
    trace: HopTrace,
    max_hops: int,
    live: Any = None,
) -> None:
    """Simultaneous multi-source BFS race with priority ties (DOAM, IC).

    The race starts from the fronts of the trace's last hop. Each hop,
    every cascade's front claims its inactive out-neighbors that no
    earlier cascade in ``seeds.priority`` claimed this hop. It stops when
    a hop claims nothing, or after ``max_hops`` hops.

    ``live[edge]`` tests the edge at that CSR position; ``None`` (DOAM)
    keeps every edge. It is read only for an inactive, unclaimed head, in
    per-run IC's draw order: cascades by priority, fronts by node id,
    out-edges in CSR order.
    """
    out = graph.out
    indptr = None if live is None else graph.csr().indptr
    order = seeds.priority
    fronts: List[List[int]] = [newly[-1] for newly in trace.newly]

    for _hop in range(max_hops):
        if not any(fronts):
            break
        targets: List[Set[int]] = [set() for _ in fronts]
        claimed: Set[int] = set()
        for cascade in order:
            chosen = targets[cascade]
            for node in fronts[cascade]:
                if indptr is None:  # DOAM: every edge is live
                    for neighbor in out[node]:
                        if states[neighbor] == INACTIVE and neighbor not in claimed:
                            chosen.add(neighbor)  # priority claims ties
                    continue
                # int(): a CSR-born graph's indptr is a NumPy array.
                edge = int(indptr[node])
                for neighbor in out[node]:
                    if (
                        states[neighbor] == INACTIVE
                        and neighbor not in claimed
                        and live[edge]
                    ):
                        chosen.add(neighbor)
                    edge += 1
            claimed |= chosen

        if not claimed:
            break  # fronts alive but nothing left to activate
        news: List[List[int]] = []
        for cascade, chosen in enumerate(targets):
            new = sorted(chosen)
            state = cascade + 1
            for node in new:
                states[node] = state
            news.append(new)
        trace.record_cascades(news)
        fronts = news


class DOAMModel(DiffusionModel):
    """Deterministic One-Activate-Many competitive diffusion."""

    name = "DOAM"
    stochastic = False

    def _spread(
        self,
        graph: IndexedDiGraph,
        states: List[int],
        seeds: CascadeSet,
        trace: HopTrace,
        rng: Optional[RngStream],
        max_hops: int,
    ) -> None:
        bfs_race(graph, states, seeds, trace, max_hops)
        registry = metrics()
        if registry.enabled:
            # Work accounting: every front expanded inside the horizon
            # visits its nodes and their out-edges once.
            out = graph.out
            fronts = [front for newly in trace.newly for front in newly[:max_hops]]
            registry.counter("sim.node_visits").add(sum(map(len, fronts)))
            registry.counter("sim.edge_visits").add(
                sum(len(out[node]) for front in fronts for node in front)
            )
