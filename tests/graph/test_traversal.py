"""Unit tests for BFS traversal primitives."""

import pytest

from repro.errors import NodeNotFoundError
from repro.graph.digraph import DiGraph
from repro.graph.traversal import (
    bfs_distances,
    bfs_layers,
    bfs_tree,
    multi_source_distances,
    shortest_hop_distance,
)


class TestBfsLayers:
    def test_chain_layers(self, chain):
        layers = list(bfs_layers(chain, [0]))
        assert layers == [[0], [1], [2], [3], [4], [5]]

    def test_diamond_layers(self, diamond):
        layers = list(bfs_layers(diamond, ["s"]))
        assert layers[0] == ["s"]
        assert sorted(layers[1]) == ["a", "b"]
        assert layers[2] == ["t"]

    def test_multi_source_dedup(self, chain):
        layers = list(bfs_layers(chain, [0, 0, 1]))
        assert sorted(layers[0]) == [0, 1]

    def test_max_depth(self, chain):
        layers = list(bfs_layers(chain, [0], max_depth=2))
        assert len(layers) == 3  # depths 0, 1, 2

    def test_reverse_direction(self, chain):
        layers = list(bfs_layers(chain, [5], reverse=True))
        assert layers == [[5], [4], [3], [2], [1], [0]]

    def test_missing_source_raises(self, chain):
        with pytest.raises(NodeNotFoundError):
            list(bfs_layers(chain, ["ghost"]))

    def test_unreachable_nodes_not_visited(self):
        g = DiGraph.from_edges([(0, 1)], nodes=[2])
        layers = list(bfs_layers(g, [0]))
        visited = {node for layer in layers for node in layer}
        assert 2 not in visited


class TestDistances:
    def test_single_source(self, chain):
        distances = bfs_distances(chain, 0)
        assert distances == {i: i for i in range(6)}

    def test_multi_source_takes_minimum(self, chain):
        distances = multi_source_distances(chain, [0, 3])
        assert distances[4] == 1
        assert distances[2] == 2

    def test_unreachable_omitted(self):
        g = DiGraph.from_edges([(0, 1)], nodes=[2])
        assert 2 not in bfs_distances(g, 0)

    def test_reverse_distances_are_path_lengths_to_target(self, diamond):
        distances = bfs_distances(diamond, "t", reverse=True)
        assert distances == {"t": 0, "a": 1, "b": 1, "s": 2}

    def test_max_depth_cuts_off(self, chain):
        distances = bfs_distances(chain, 0, max_depth=3)
        assert max(distances.values()) == 3
        assert 4 not in distances


class TestBfsTree:
    def test_parents_form_tree(self, diamond):
        parents = bfs_tree(diamond, "s")
        assert parents["s"] is None
        assert parents["a"] == "s" and parents["b"] == "s"
        assert parents["t"] in ("a", "b")

    def test_tree_respects_max_depth(self, chain):
        parents = bfs_tree(chain, 0, max_depth=2)
        assert set(parents) == {0, 1, 2}

    def test_reverse_tree(self, chain):
        parents = bfs_tree(chain, 5, reverse=True)
        assert parents[4] == 5
        assert set(parents) == set(range(6))

    def test_missing_source_raises(self, chain):
        with pytest.raises(NodeNotFoundError):
            bfs_tree(chain, "ghost")


class TestReachability:
    def test_shortest_hop_distance(self, diamond):
        assert shortest_hop_distance(diamond, "s", "t") == 2
        assert shortest_hop_distance(diamond, "t", "s") is None
        assert shortest_hop_distance(diamond, "s", "s") == 0

    def test_shortest_hop_missing_target_raises(self, diamond):
        with pytest.raises(NodeNotFoundError):
            shortest_hop_distance(diamond, "s", "ghost")

    def test_cycle_terminates(self, cycle):
        distances = bfs_distances(cycle, 0)
        assert distances == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
