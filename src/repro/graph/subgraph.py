"""Induced subgraphs: a node set with every edge between its members."""

from __future__ import annotations

from typing import Iterable, Set

from repro.errors import NodeNotFoundError
from repro.graph.digraph import DiGraph, Node

__all__ = ["induced_subgraph"]


def induced_subgraph(graph: DiGraph, nodes: Iterable[Node], name: str = "") -> DiGraph:
    """Subgraph induced by ``nodes`` (all must exist in ``graph``)."""
    keep: Set[Node] = set()
    for node in nodes:
        if node not in graph:
            raise NodeNotFoundError(node)
        keep.add(node)
    sub = DiGraph(name=name or f"{graph.name}[{len(keep)}]")
    sub.add_nodes(keep)
    for tail in keep:
        for head in graph.successors(tail):
            if head in keep:
                sub.add_edge(tail, head, graph.edge_weight(tail, head))
    return sub
