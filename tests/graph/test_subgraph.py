"""Unit tests for induced subgraphs."""

import pytest

from repro.errors import NodeNotFoundError
from repro.graph.digraph import DiGraph
from repro.graph.subgraph import induced_subgraph


@pytest.fixture
def split_graph():
    """Two halves {0,1,2} and {3,4} with cross edges 2->3 and 4->0."""
    return DiGraph.from_edges(
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (4, 0)]
    )


class TestInducedSubgraph:
    def test_keeps_internal_edges_only(self, split_graph):
        sub = induced_subgraph(split_graph, [0, 1, 2])
        assert sub.node_count == 3
        assert sorted(sub.edges()) == [(0, 1), (1, 2), (2, 0)]

    def test_isolated_member_kept(self, split_graph):
        sub = induced_subgraph(split_graph, [0, 3])
        assert sub.node_count == 2
        assert sub.edge_count == 0

    def test_missing_node_raises(self, split_graph):
        with pytest.raises(NodeNotFoundError):
            induced_subgraph(split_graph, [0, 99])

    def test_weights_preserved(self):
        g = DiGraph()
        g.add_edge(1, 2, weight=3.0)
        sub = induced_subgraph(g, [1, 2])
        assert sub.edge_weight(1, 2) == 3.0
