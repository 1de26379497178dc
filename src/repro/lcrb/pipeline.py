"""End-to-end LCRB pipeline helpers.

The paper's experimental flow (Section VI.B): detect communities with
Louvain → choose a rumor community → draw rumor originators inside it →
find bridge ends → select protectors → simulate. These helpers wire that
flow together so examples, the CLI, and the benchmarks share one code
path.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.algorithms.base import SelectionContext
from repro.community.louvain import louvain
from repro.community.structure import CommunityStructure
from repro.errors import SeedError, ValidationError
from repro.graph.digraph import DiGraph, Node
from repro.rng import RngStream
from repro.utils.validation import check_positive

__all__ = [
    "detect_communities",
    "draw_rumor_seeds",
    "build_context",
]


def detect_communities(
    graph: DiGraph, rng: Optional[RngStream] = None
) -> CommunityStructure:
    """Louvain-detect a community cover (the paper's detector, [25])."""
    result = louvain(graph, rng=rng)
    return CommunityStructure(graph, result.membership)


def draw_rumor_seeds(
    communities: CommunityStructure,
    rumor_community: int,
    count: int,
    rng: RngStream,
) -> List[Node]:
    """Draw ``count`` distinct rumor originators from a community.

    The paper sizes ``|R|`` as a percentage of ``|C|`` and averages over
    repeated random draws (Table I's decimals); a forked stream per draw
    index keeps draws independent and reproducible.

    Args:
        communities: the community cover.
        rumor_community: community id to draw from.
        count: number of originators (``>= 1``, ``<= |C|``).
        rng: stream consumed for the draw.
    """
    check_positive(count, "count")
    members = sorted(communities.members(rumor_community), key=repr)
    if count > len(members):
        raise SeedError(
            f"cannot draw {count} rumor seeds from a community of {len(members)}"
        )
    return rng.sample(members, count)


def build_context(
    graph: DiGraph,
    communities: Optional[CommunityStructure] = None,
    rumor_community: Optional[int] = None,
    rumor_seeds: Optional[Iterable[Node]] = None,
    rumor_fraction: float = 0.05,
    rng: Optional[RngStream] = None,
) -> Tuple[SelectionContext, CommunityStructure, int]:
    """Resolve a full LCRB instance with sensible defaults.

    Any omitted piece is derived: communities via Louvain, the rumor
    community as the largest detected one, rumor seeds as a random
    ``rumor_fraction`` of the community (at least one).

    Returns:
        ``(context, communities, rumor_community_id)``.
    """
    rng = rng or RngStream(name="pipeline")
    if communities is None:
        communities = detect_communities(graph, rng=rng.fork("louvain"))
    elif communities.graph is not graph:
        raise ValidationError("communities are bound to a different graph")
    if rumor_community is None:
        rumor_community = communities.largest_communities(1)[0]
    if rumor_seeds is None:
        size = communities.size(rumor_community)
        count = max(1, int(round(rumor_fraction * size)))
        rumor_seeds = draw_rumor_seeds(
            communities, rumor_community, count, rng.fork("seeds")
        )
    context = SelectionContext(
        graph, communities.members(rumor_community), rumor_seeds
    )
    return context, communities, rumor_community
