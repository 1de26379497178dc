"""Competitive Linear Threshold (CLT) model (extension).

He et al. [16] address influence-blocking maximisation under a competitive
LT model; the paper adapts their proof technique for OPOAO submodularity.
This module provides the CLT substrate itself:

* Every node ``v`` draws a threshold ``θ_v ~ U[0, 1]`` once per run.
* Incoming influence weight is ``b(u, v) = 1 / d_in(v)`` for every edge,
  so weights into a node sum to exactly 1.
* Thresholds are crossed **per cascade** (as in He et al.'s CLT): an
  inactive node joins the first cascade *in priority order* whose
  in-weight alone reaches ``θ_v``. The default ``positives-first`` order
  is P priority (common property 2) for K=2. Cascades never subsidise
  each other's activation — without this, seeding protectors near a
  rumor could perversely help the rumor cross thresholds.
* Progressive activation; the process stops when a sweep changes nothing.

:func:`threshold_race` is the race on fixed thresholds, drawn by the
per-run model or taken from a sampled world by the python kernel
backend. Float accumulation order is part of the bit-identity contract:
fronts feed influence in priority order (P first for K=2, as before).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.diffusion.base import (
    INACTIVE,
    CascadeSet,
    DiffusionModel,
)
from repro.diffusion.trace import HopTrace
from repro.graph.compact import IndexedDiGraph
from repro.rng import RngStream

__all__ = ["CompetitiveLTModel", "threshold_race"]


def threshold_race(
    graph: IndexedDiGraph,
    states: List[int],
    seeds: CascadeSet,
    trace: HopTrace,
    max_hops: int,
    thresholds: Sequence[float],
) -> None:
    """Competitive LT on fixed thresholds (per-cascade crossing, priority).

    The race starts from the fronts of the trace's last hop and stops
    when no threshold is crossed, or after ``max_hops`` hops. The
    accumulation order (fronts fed in priority order, each in ascending
    node order, out-rows in CSR order) is part of the contract: the NumPy
    backend reproduces the same float addition order so shared worlds
    give bit-identical sums.
    """
    out = graph.out
    inn = graph.inn
    order = seeds.priority
    # Accumulated in-weight per cascade per inactive node, fed only by
    # the newly-activated front each step (LT influence is permanent, so
    # accumulation is equivalent to re-summing).
    cascade_weight: List[List[float]] = [
        [0.0] * graph.node_count for _ in seeds.cascades
    ]

    def feed(front: List[int], weights: List[float]) -> Set[int]:
        """Push the front's influence; return the inactive nodes it reached."""
        touched: Set[int] = set()
        for node in front:
            for neighbor in out[node]:
                if states[neighbor] != INACTIVE:
                    continue
                weights[neighbor] += 1.0 / max(1, len(inn[neighbor]))
                touched.add(neighbor)
        return touched

    fronts: List[List[int]] = [newly[-1] for newly in trace.newly]
    for _hop in range(max_hops):
        if not any(fronts):
            break
        touched: Set[int] = set()
        for cascade in order:
            touched |= feed(fronts[cascade], cascade_weight[cascade])

        news: List[List[int]] = [[] for _ in fronts]
        for node in sorted(touched):
            for cascade in order:
                if cascade_weight[cascade][node] + 1e-12 >= thresholds[node]:
                    news[cascade].append(node)
                    break
        if not any(news):
            break  # no threshold crossed; accumulation is frozen
        for cascade, new in enumerate(news):
            state = cascade + 1
            for node in new:
                states[node] = state
        trace.record_cascades(news)
        fronts = news


class CompetitiveLTModel(DiffusionModel):
    """K-cascade Linear Threshold with priority tie-breaking."""

    name = "CLT"
    stochastic = True

    def _spread(
        self,
        graph: IndexedDiGraph,
        states: List[int],
        seeds: CascadeSet,
        trace: HopTrace,
        rng: Optional[RngStream],
        max_hops: int,
    ) -> None:
        assert rng is not None
        thresholds = [rng.random() for _ in range(graph.node_count)]
        threshold_race(graph, states, seeds, trace, max_hops, thresholds)
