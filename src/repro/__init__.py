"""repro — Least Cost Rumor Blocking in Social Networks (ICDCS 2013).

A from-scratch reproduction of Fan, Lu, Wu, Thuraisingham, Ma & Bi,
"Least Cost Rumor Blocking in Social Networks": the OPOAO and DOAM
competitive diffusion models, bridge-end machinery (RFST/BBST), the
Monte-Carlo Greedy and Set-Cover-Based-Greedy algorithms with their
approximation guarantees, the comparison heuristics, and the full
experiment harness regenerating every table and figure of the paper's
evaluation section.

Quickstart::

    from repro import (
        DiGraph, build_context, SCBGSelector, DOAMModel, evaluate_protectors,
    )

    graph = DiGraph.from_edges([...])
    context, communities, rumor_cid = build_context(graph)
    protectors = SCBGSelector().select(context)
    report = evaluate_protectors(context, protectors, DOAMModel())
    print(report.protected_bridge_fraction)

See README.md for the full tour and DESIGN.md for the paper-to-module map.
"""

from repro.algorithms import (
    CELFGreedySelector,
    GreedySelector,
    MaxDegreeSelector,
    PageRankSelector,
    ProtectorSelector,
    ProximitySelector,
    RandomSelector,
    RISGreedySelector,
    SCBGSelector,
    SelectionContext,
    SigmaEstimator,
    estimate_sources,
    greedy_set_cover,
)
from repro.bridge import build_all_bbsts, build_rfsts, find_bridge_ends
from repro.community import CommunityStructure, label_propagation, louvain, modularity
from repro.diffusion import (
    CompetitiveICModel,
    CompetitiveLTModel,
    DiffusionOutcome,
    DOAMModel,
    MonteCarloSimulator,
    OPOAOModel,
    SeedSets,
)
from repro.errors import ReproError
from repro.graph import DiGraph, IndexedDiGraph
from repro.lcrb import build_context, draw_rumor_seeds, evaluate_protectors
from repro.rng import RngStream
from repro.sketch import SketchStore

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # graph
    "DiGraph",
    "IndexedDiGraph",
    # community
    "CommunityStructure",
    "louvain",
    "label_propagation",
    "modularity",
    # diffusion
    "OPOAOModel",
    "DOAMModel",
    "CompetitiveICModel",
    "CompetitiveLTModel",
    "SeedSets",
    "DiffusionOutcome",
    "MonteCarloSimulator",
    # bridge
    "find_bridge_ends",
    "build_rfsts",
    "build_all_bbsts",
    # algorithms
    "ProtectorSelector",
    "SelectionContext",
    "GreedySelector",
    "CELFGreedySelector",
    "SigmaEstimator",
    "SCBGSelector",
    "RISGreedySelector",
    "greedy_set_cover",
    # sketch
    "SketchStore",
    "MaxDegreeSelector",
    "ProximitySelector",
    "RandomSelector",
    "PageRankSelector",
    "estimate_sources",
    # lcrb
    "build_context",
    "draw_rumor_seeds",
    "evaluate_protectors",
    # infrastructure
    "RngStream",
    "ReproError",
]
