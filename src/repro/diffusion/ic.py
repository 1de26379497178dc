"""Competitive Independent Cascade (extension model).

The paper's related work ([14] Budak et al., [15] Bharathi et al.) studies
rumor blocking under extensions of the Independent Cascade model; this
module provides that substrate so the library's algorithms can be compared
across models (the paper's Section VII suggests studying LCRB "under other
influence diffusion models").

Mechanics:

* A newly active node ``u`` gets exactly one chance, the step after its
  activation, to activate **each** currently inactive out-neighbor ``v``,
  succeeding independently with probability ``p`` (uniform) — the classic
  IC trial.
* All cascades run simultaneously; if a node is successfully activated by
  several in the same step, the earliest cascade in the priority order
  wins. The default ``positives-first`` order is the paper's common
  property 2 (**P wins**) for K=2.
* Progressive activation.

The race is DOAM's :func:`~repro.diffusion.doam.bfs_race` with a
live-edge test that flips each edge's coin on the run's stream when the
race asks for it. RNG consumption order is part of the engine's
bit-identity contract: fronts run their trials in priority order, and a
trial is only drawn for a neighbor that is inactive and not already
claimed by an earlier-priority cascade this hop — exactly the
pre-refactor two-cascade sequence when K=2.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.diffusion.base import CascadeSet, DiffusionModel
from repro.diffusion.doam import bfs_race
from repro.diffusion.trace import HopTrace
from repro.graph.compact import IndexedDiGraph
from repro.rng import RngStream
from repro.utils.validation import check_probability

__all__ = ["CompetitiveICModel"]


class _Coins:
    """Per-run IC's live-edge test: ``coins[edge]`` flips the coin of the
    edge at that CSR position on the run's stream."""

    __slots__ = ("_random", "_probability", "_weights")

    def __init__(
        self, rng: RngStream, probability: Optional[float], weights: Sequence[float]
    ) -> None:
        self._random = rng.random
        self._probability = probability
        self._weights = weights

    def __getitem__(self, edge: int) -> bool:
        probability = self._probability
        if probability is None:
            probability = self._weights[edge]
            if not 0.0 <= probability <= 1.0:
                raise ValueError(
                    f"weighted IC needs edge weights in [0, 1]; got {probability!r}"
                )
        return self._random() < probability


class CompetitiveICModel(DiffusionModel):
    """K-cascade Independent Cascade with priority tie-breaking.

    Args:
        probability: global per-edge activation probability ``p``; pass
            ``None`` to use each edge's weight as its probability (weights
            must then lie in [0, 1] — the weighted-IC convention).
    """

    name = "IC"
    stochastic = True

    def __init__(self, probability: Optional[float] = 0.1) -> None:
        if probability is None:
            self.probability = None
            self.name = "IC-W"
        else:
            self.probability = check_probability(probability, "probability")

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
        weights = graph.csr().weights if self.probability is None else ()
        coins = _Coins(rng, self.probability, weights)
        bfs_race(graph, states, seeds, trace, max_hops, coins)

    def __repr__(self) -> str:
        return f"CompetitiveICModel(probability={self.probability})"
