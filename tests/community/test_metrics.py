"""Unit tests for partition-quality metrics."""

import pytest

from repro.community.metrics import conductance, normalized_mutual_information, purity
from repro.graph.digraph import DiGraph


class TestNmi:
    def test_identical_partitions(self):
        p = {0: 0, 1: 0, 2: 1, 3: 1}
        assert normalized_mutual_information(p, p) == pytest.approx(1.0)

    def test_relabeled_partitions_still_one(self):
        left = {0: 0, 1: 0, 2: 1, 3: 1}
        right = {0: 7, 1: 7, 2: 3, 3: 3}
        assert normalized_mutual_information(left, right) == pytest.approx(1.0)

    def test_independent_partitions_low(self):
        left = {i: i % 2 for i in range(8)}
        right = {i: i // 4 for i in range(8)}
        assert normalized_mutual_information(left, right) == pytest.approx(0.0, abs=1e-9)

    def test_different_node_sets_rejected(self):
        with pytest.raises(ValueError):
            normalized_mutual_information({0: 0}, {1: 0})

    def test_both_trivial_partitions(self):
        left = {0: 0, 1: 0}
        right = {0: 5, 1: 5}
        assert normalized_mutual_information(left, right) == 1.0

    def test_one_trivial_one_split(self):
        left = {0: 0, 1: 0}
        right = {0: 0, 1: 1}
        assert normalized_mutual_information(left, right) == 0.0


class TestPurity:
    def test_perfect(self):
        found = {0: 0, 1: 0, 2: 1}
        truth = {0: 9, 1: 9, 2: 4}
        assert purity(found, truth) == 1.0

    def test_half(self):
        found = {0: 0, 1: 0}
        truth = {0: 0, 1: 1}
        assert purity(found, truth) == 0.5


class TestConductance:
    def test_isolated_block_zero(self):
        g = DiGraph.from_edges([(0, 1), (1, 0), (2, 3), (3, 2)])
        assert conductance(g, [0, 1]) == 0.0

    def test_cut_block_positive(self):
        g = DiGraph.from_edges([(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])
        value = conductance(g, [0, 1])
        assert 0 < value <= 1.0

    def test_dense_community_lower_than_random_split(self):
        g = DiGraph()
        for base in (0, 4):
            for i in range(base, base + 4):
                for j in range(i + 1, base + 4):
                    g.add_symmetric_edge(i, j)
        g.add_symmetric_edge(0, 4)
        community = conductance(g, [0, 1, 2, 3])
        random_split = conductance(g, [0, 1, 4, 5])
        assert community < random_split
