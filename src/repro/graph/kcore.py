"""k-core decomposition.

Core numbers are a classic robustness/influence statistic (a node's core
number is the largest k such that it survives iteratively deleting all
nodes of degree < k). Available for dataset characterisation and as a
protector-ranking signal.

Implementation: min-degree peeling with a lazy heap on the *symmetrised*
degree (in + out neighbors, direction ignored), O(E log V).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Set, Tuple

from repro.graph.digraph import DiGraph, Node

__all__ = ["core_numbers"]


def core_numbers(graph: DiGraph) -> Dict[Node, int]:
    """Core number of every node (symmetrised-degree cores).

    Peeling invariant: repeatedly remove a minimum-degree node; a node's
    core number is the running maximum of the degrees at removal time.
    """
    neighbors: Dict[Node, Set[Node]] = {}
    for node in graph.nodes():
        adjacent = set(graph.successors(node)) | set(graph.predecessors(node))
        adjacent.discard(node)
        neighbors[node] = adjacent

    degree = {node: len(adjacent) for node, adjacent in neighbors.items()}
    heap: List[Tuple[int, int, Node]] = []
    order = {node: position for position, node in enumerate(graph.nodes())}
    for node, d in degree.items():
        heapq.heappush(heap, (d, order[node], node))

    core: Dict[Node, int] = {}
    removed: Set[Node] = set()
    running_max = 0
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in removed or d != degree[node]:
            continue  # stale entry
        running_max = max(running_max, d)
        core[node] = running_max
        removed.add(node)
        for neighbor in neighbors[node]:
            if neighbor not in removed:
                degree[neighbor] -= 1
                heapq.heappush(heap, (degree[neighbor], order[neighbor], neighbor))
    return core
