"""Rumor Forward Search Trees (RFST) and bridge-end detection.

Algorithm 1/3, line 3: "For each r in S_R, construct the Rumor Forward
Search Tree (RFST) by the BFS method to find all bridge ends in G".

A bridge end (Section I/IV) is a node that

* lies **outside** the rumor community,
* has at least one **direct in-neighbor inside** the rumor community, and
* is **reachable from the rumor originators**.

Given the second condition, a bridge end's own community necessarily
receives an edge from the rumor community, i.e. it is an R-neighbor
community — so detection only needs the rumor community's node set, not
the full cover.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from repro.errors import NodeNotFoundError, SeedError
from repro.graph.digraph import DiGraph, Node
from repro.graph.traversal import bfs_tree, multi_source_distances

__all__ = [
    "RumorForwardTree",
    "build_rfsts",
    "find_bridge_ends",
    "find_bridge_end_ids",
]


class RumorForwardTree:
    """The BFS tree grown forward from one rumor originator.

    Attributes:
        root: the rumor originator.
        parents: node -> BFS parent (root maps to ``None``); the keys are
            the tree's vertex set.
        bridge_ends: the bridge ends discovered in this tree (Fig. 3(a)
            marks them as the leaves at the community boundary).
    """

    __slots__ = ("root", "parents", "bridge_ends")

    def __init__(
        self,
        root: Node,
        parents: Dict[Node, Optional[Node]],
        bridge_ends: FrozenSet[Node],
    ) -> None:
        self.root = root
        self.parents = parents
        self.bridge_ends = bridge_ends

    def path_from_root(self, node: Node) -> List[Node]:
        """The tree path root -> ... -> ``node`` (node must be in the tree)."""
        if node not in self.parents:
            raise NodeNotFoundError(node)
        path: List[Node] = []
        current: Optional[Node] = node
        while current is not None:
            path.append(current)
            current = self.parents[current]
        path.reverse()
        return path

    def depth_of(self, node: Node) -> int:
        """Hop depth of ``node`` in this tree."""
        return len(self.path_from_root(node)) - 1

    def __contains__(self, node: Node) -> bool:
        return node in self.parents

    def __repr__(self) -> str:
        return (
            f"RumorForwardTree(root={self.root!r}, size={len(self.parents)}, "
            f"bridge_ends={len(self.bridge_ends)})"
        )


def _check_inputs(
    graph: DiGraph, rumor_community: Iterable[Node], rumor_seeds: Iterable[Node]
) -> tuple:
    community: Set[Node] = set()
    for node in rumor_community:
        if node not in graph:
            raise NodeNotFoundError(node)
        community.add(node)
    seeds = list(dict.fromkeys(rumor_seeds))  # dedupe, keep order
    if not seeds:
        raise SeedError("rumor seed set must not be empty")
    for seed in seeds:
        if seed not in graph:
            raise NodeNotFoundError(seed)
        if seed not in community:
            raise SeedError(
                f"rumor seed {seed!r} is outside the rumor community "
                "(Definition 2 requires S_R ⊆ V(C_k))"
            )
    return community, seeds


def build_rfsts(
    graph: DiGraph,
    rumor_community: Iterable[Node],
    rumor_seeds: Iterable[Node],
) -> List[RumorForwardTree]:
    """Build one RFST per rumor originator (Algorithm 3 line 3).

    Each tree is a full forward BFS from its seed; its bridge ends are the
    reached nodes outside the community with an in-neighbor inside it.

    Args:
        graph: the social network.
        rumor_community: node set of the rumor community ``C_r``.
        rumor_seeds: the originators ``S_R`` (must lie inside ``C_r``).
    """
    community, seeds = _check_inputs(graph, rumor_community, rumor_seeds)
    trees: List[RumorForwardTree] = []
    for seed in seeds:
        parents = bfs_tree(graph, seed)
        ends = frozenset(
            node
            for node in parents
            if node not in community
            and any(tail in community for tail in graph.predecessors(node))
        )
        trees.append(RumorForwardTree(seed, parents, ends))
    return trees


def find_bridge_ends(
    graph: DiGraph,
    rumor_community: Iterable[Node],
    rumor_seeds: Iterable[Node],
) -> FrozenSet[Node]:
    """The bridge end set ``B`` (union over all RFSTs).

    Implemented directly with one multi-source BFS (equivalent to, and
    cheaper than, unioning per-seed RFSTs — the per-tree structure is only
    needed when inspecting paths, for which use :func:`build_rfsts`).
    Candidates come from the community's out-rows (a head outside
    ``C_r`` of an edge leaving ``C_r`` has an in-neighbor inside it).
    """
    community, seeds = _check_inputs(graph, rumor_community, rumor_seeds)
    reachable = multi_source_distances(graph, seeds)
    return frozenset(
        head
        for tail in community
        for head in graph.successors(tail)
        if head in reachable and head not in community
    )


def find_bridge_end_ids(
    graph,
    community_ids: Iterable[int],
    seed_ids: Iterable[int],
) -> FrozenSet[int]:
    """The bridge end set ``B`` in **id space**, on an indexed snapshot.

    Same semantics as :func:`find_bridge_ends`, but runs directly on an
    :class:`~repro.graph.compact.IndexedDiGraph` — the serve layer's
    path, where ``B`` must be recomputed against the *current* adjacency
    after in-place edge updates without round-tripping through labels.
    """
    community: Set[int] = set()
    for node in community_ids:
        _check_node_id(graph, node)
        community.add(node)
    seeds = list(dict.fromkeys(seed_ids))
    if not seeds:
        raise SeedError("rumor seed set must not be empty")
    for seed in seeds:
        _check_node_id(graph, seed)
        if seed not in community:
            raise SeedError(
                f"rumor seed {seed!r} is outside the rumor community "
                "(Definition 2 requires S_R ⊆ V(C_k))"
            )
    out = graph.out
    reached: Set[int] = set(seeds)
    frontier: List[int] = list(seeds)
    while frontier:
        next_frontier: List[int] = []
        for node in frontier:
            for head in out[node]:
                if head not in reached:
                    reached.add(head)
                    next_frontier.append(head)
        frontier = next_frontier
    return frozenset(
        head
        for tail in community
        for head in out[tail]
        if head in reached and head not in community
    )


def _check_node_id(graph, node: int) -> None:
    if isinstance(node, bool) or not isinstance(node, int):
        raise NodeNotFoundError(node)
    if not 0 <= node < graph.node_count:
        raise NodeNotFoundError(node)
