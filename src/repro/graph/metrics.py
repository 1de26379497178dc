"""Descriptive graph statistics.

The paper characterises each dataset by node count, edge count, and average
node degree (Section VI.A); the dataset replicas are calibrated against the
same statistics, and the experiment reports print them so a reader can
compare replica vs. paper at a glance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.graph.digraph import DiGraph

__all__ = [
    "average_degree",
    "density",
    "reciprocity",
    "GraphSummary",
    "summarize",
]


def average_degree(graph: DiGraph) -> float:
    """Directed edges per node — the paper's "average node degree".

    (Enron: 367662 / 36692 ≈ 10.0; Hep after symmetrisation:
    2 * 58891 / 15233 ≈ 7.73.)
    """
    if graph.node_count == 0:
        return 0.0
    return graph.edge_count / graph.node_count


def density(graph: DiGraph) -> float:
    """Directed density: edges / (n * (n - 1))."""
    n = graph.node_count
    if n < 2:
        return 0.0
    return graph.edge_count / (n * (n - 1))


def reciprocity(graph: DiGraph) -> float:
    """Fraction of directed edges whose reverse edge also exists."""
    if graph.edge_count == 0:
        return 0.0
    mutual = sum(1 for tail, head in graph.edges() if graph.has_edge(head, tail))
    return mutual / graph.edge_count


@dataclass(frozen=True)
class GraphSummary:
    """Headline statistics of a graph, as printed by reports and the CLI."""

    name: str
    nodes: int
    edges: int
    average_degree: float
    density: float
    reciprocity: float

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON reports."""
        return {
            "name": self.name,
            "nodes": self.nodes,
            "edges": self.edges,
            "average_degree": self.average_degree,
            "density": self.density,
            "reciprocity": self.reciprocity,
        }

    def __str__(self) -> str:
        return (
            f"{self.name or 'graph'}: |N|={self.nodes} |E|={self.edges} "
            f"avg_deg={self.average_degree:.2f} density={self.density:.5f} "
            f"reciprocity={self.reciprocity:.2f}"
        )


def summarize(graph: DiGraph) -> GraphSummary:
    """Compute a :class:`GraphSummary` for ``graph``."""
    return GraphSummary(
        name=graph.name,
        nodes=graph.node_count,
        edges=graph.edge_count,
        average_degree=average_degree(graph),
        density=density(graph),
        reciprocity=reciprocity(graph),
    )
