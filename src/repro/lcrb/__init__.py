"""The Least Cost Rumor Blocking problem layer.

* :mod:`repro.lcrb.evaluation` — protector-set evaluation: infected-per-
  hop series, bridge-end protection statistics (the quantities plotted in
  Fig. 4-9).
* :mod:`repro.lcrb.pipeline` — the end-to-end flow: detect communities,
  choose the rumor community, draw rumor seeds, find bridge ends, select
  protectors, evaluate.
* :mod:`repro.lcrb.gossip_blocking` — the same protector-selection
  question re-scored on the message-passing gossip workload
  (:mod:`repro.gossip`): messages sent versus final infected.
* :mod:`repro.lcrb.multicascade` — K-cascade scenarios over the
  generalized engine: distributed (uncoordinated) blocking campaigns and
  impression-domination scoring, each with an exact small-graph oracle.
"""

from repro.lcrb.evaluation import (
    EvaluationResult,
    evaluate_protectors,
    resolve_seed_labels,
)
from repro.lcrb.multicascade import (
    DistributedBlockingResult,
    DistributedBlockingScenario,
    ImpressionResult,
    ImpressionScenario,
)
from repro.lcrb.gossip_blocking import (
    GossipBlockingResult,
    GossipBlockingScenario,
    GossipStrategyRow,
    default_gossip_selectors,
)
from repro.lcrb.pipeline import (
    build_context,
    draw_rumor_seeds,
)

__all__ = [
    "EvaluationResult",
    "evaluate_protectors",
    "resolve_seed_labels",
    "DistributedBlockingResult",
    "DistributedBlockingScenario",
    "ImpressionResult",
    "ImpressionScenario",
    "build_context",
    "draw_rumor_seeds",
    "GossipBlockingResult",
    "GossipBlockingScenario",
    "GossipStrategyRow",
    "default_gossip_selectors",
]
