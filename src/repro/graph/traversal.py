"""Breadth-first traversal primitives.

BFS is the workhorse of the whole paper: bridge ends are found with BFS
forward from rumor seeds (Rumor Forward Search Trees, Algorithm 1/3 line 3);
SCBG candidate protectors are found with BFS *backward* from bridge ends
(Bridge-end Backward Search Trees, Algorithm 3 line 4); and DOAM diffusion
itself is a two-source BFS with priority tie-breaking.

All functions here operate on :class:`repro.graph.digraph.DiGraph`; the
diffusion hot loops have their own int-indexed equivalents.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set

from repro.errors import NodeNotFoundError
from repro.graph.digraph import DiGraph, Node

__all__ = [
    "bfs_layers",
    "bfs_distances",
    "bfs_tree",
    "multi_source_distances",
    "shortest_hop_distance",
]


def _neighbor_fn(
    graph: DiGraph, reverse: bool
) -> Callable[[Node], Iterator[Node]]:
    return graph.predecessors if reverse else graph.successors


def bfs_layers(
    graph: DiGraph,
    sources: Iterable[Node],
    reverse: bool = False,
    max_depth: Optional[int] = None,
) -> Iterator[List[Node]]:
    """Yield BFS layers (hop fronts) from ``sources``.

    Layer 0 is the (deduplicated) source list in input order; layer ``k``
    holds nodes first reached in exactly ``k`` hops.

    Args:
        graph: the graph to traverse.
        sources: starting nodes (all must exist).
        reverse: traverse in-edges instead of out-edges (backward BFS).
        max_depth: stop after this many layers past the sources.
    """
    neighbors = _neighbor_fn(graph, reverse)
    seen: Set[Node] = set()
    layer: List[Node] = []
    for source in sources:
        if source not in graph:
            raise NodeNotFoundError(source)
        if source not in seen:
            seen.add(source)
            layer.append(source)
    depth = 0
    while layer:
        yield layer
        if max_depth is not None and depth >= max_depth:
            return
        next_layer: List[Node] = []
        for node in layer:
            for neighbor in neighbors(node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    next_layer.append(neighbor)
        layer = next_layer
        depth += 1


def bfs_distances(
    graph: DiGraph,
    source: Node,
    reverse: bool = False,
    max_depth: Optional[int] = None,
) -> Dict[Node, int]:
    """Hop distances from a single source (unreachable nodes omitted)."""
    return multi_source_distances(graph, [source], reverse=reverse, max_depth=max_depth)


def multi_source_distances(
    graph: DiGraph,
    sources: Iterable[Node],
    reverse: bool = False,
    max_depth: Optional[int] = None,
) -> Dict[Node, int]:
    """Hop distance from the nearest of ``sources`` to every reachable node.

    This is exactly the rumor arrival time ``t_R(v)`` under DOAM when
    ``sources`` is the rumor seed set.
    """
    distances: Dict[Node, int] = {}
    for depth, layer in enumerate(
        bfs_layers(graph, sources, reverse=reverse, max_depth=max_depth)
    ):
        for node in layer:
            distances[node] = depth
    return distances


def bfs_tree(
    graph: DiGraph,
    source: Node,
    reverse: bool = False,
    max_depth: Optional[int] = None,
) -> Dict[Node, Optional[Node]]:
    """BFS parent pointers from ``source`` (``source`` maps to ``None``).

    The returned mapping *is* the paper's search tree (RFST when forward
    from a rumor seed, BBST when backward from a bridge end): keys are the
    tree's vertex set, parent pointers are the tree edges.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    neighbors = _neighbor_fn(graph, reverse)
    parents: Dict[Node, Optional[Node]] = {source: None}
    queue = deque([(source, 0)])
    while queue:
        node, depth = queue.popleft()
        if max_depth is not None and depth >= max_depth:
            continue
        for neighbor in neighbors(node):
            if neighbor not in parents:
                parents[neighbor] = node
                queue.append((neighbor, depth + 1))
    return parents


def shortest_hop_distance(graph: DiGraph, source: Node, target: Node) -> Optional[int]:
    """Length of the shortest directed path, or ``None`` if unreachable."""
    if target not in graph:
        raise NodeNotFoundError(target)
    for depth, layer in enumerate(bfs_layers(graph, [source])):
        if target in layer:
            return depth
    return None
