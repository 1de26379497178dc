"""Unit tests for k-core decomposition."""

from repro.graph.digraph import DiGraph
from repro.graph.kcore import core_numbers


def clique(size: int, offset: int = 0) -> DiGraph:
    g = DiGraph()
    for i in range(offset, offset + size):
        for j in range(i + 1, offset + size):
            g.add_symmetric_edge(i, j)
    return g


class TestCoreNumbers:
    def test_empty_graph(self):
        assert core_numbers(DiGraph()) == {}

    def test_isolated_nodes_core_zero(self):
        g = DiGraph()
        g.add_nodes([1, 2])
        assert core_numbers(g) == {1: 0, 2: 0}

    def test_clique_core(self):
        g = clique(5)
        cores = core_numbers(g)
        assert all(value == 4 for value in cores.values())

    def test_chain_core_one(self, chain):
        cores = core_numbers(chain)
        assert all(value == 1 for value in cores.values())

    def test_clique_with_pendant(self):
        g = clique(4)
        g.add_symmetric_edge(0, "pendant")
        cores = core_numbers(g)
        assert cores["pendant"] == 1
        assert cores[0] == 3
        assert cores[1] == 3

    def test_direction_ignored(self):
        # A directed triangle has symmetrised degree 2 everywhere.
        g = DiGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        cores = core_numbers(g)
        assert all(value == 2 for value in cores.values())

    def test_self_loop_ignored(self):
        g = DiGraph()
        g.add_edge(0, 0)
        g.add_symmetric_edge(0, 1)
        cores = core_numbers(g)
        assert cores[0] == 1

    def test_two_cliques_different_cores(self):
        g = clique(5)
        small = clique(3, offset=10)
        for tail, head, weight in small.weighted_edges():
            g.add_edge(tail, head, weight)
        g.add_symmetric_edge(0, 10)
        cores = core_numbers(g)
        assert cores[1] == 4
        assert cores[11] == 2
