"""Unit tests for RFSTs and bridge-end detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bridge.rfst import build_rfsts, find_bridge_end_ids, find_bridge_ends
from repro.errors import NodeNotFoundError, SeedError
from repro.graph.digraph import DiGraph
from repro.graph.traversal import multi_source_distances


class TestFindBridgeEnds:
    def test_toy_instance(self, toy):
        graph, communities, info = toy
        ends = find_bridge_ends(
            graph, communities.members(0), info["rumor_seeds"]
        )
        assert ends == info["bridge_ends"]

    def test_fig2_instance(self, fig2):
        graph, communities, info = fig2
        ends = find_bridge_ends(graph, communities.members(0), info["rumor_seeds"])
        assert ends == info["bridge_ends"]

    def test_unreachable_boundary_node_excluded(self):
        # b2 has an in-neighbor in the community but the seeds cannot
        # reach it (only c2 points to it, and c2 is unreachable from r).
        g = DiGraph.from_edges([("r", "c1"), ("c1", "b1"), ("c2", "b2")])
        ends = find_bridge_ends(g, ["r", "c1", "c2"], ["r"])
        assert ends == frozenset({"b1"})

    def test_interior_outsider_excluded(self):
        # x is reachable but has no direct in-neighbor in the community.
        g = DiGraph.from_edges([("r", "b"), ("b", "x")])
        ends = find_bridge_ends(g, ["r"], ["r"])
        assert ends == frozenset({"b"})

    def test_seed_outside_community_rejected(self, toy):
        graph, communities, _ = toy
        with pytest.raises(SeedError, match="outside the rumor community"):
            find_bridge_ends(graph, communities.members(0), ["b"])

    def test_empty_seeds_rejected(self, toy):
        graph, communities, _ = toy
        with pytest.raises(SeedError):
            find_bridge_ends(graph, communities.members(0), [])

    def test_unknown_community_node_rejected(self, toy):
        graph, _, info = toy
        with pytest.raises(NodeNotFoundError):
            find_bridge_ends(graph, ["ghost"], info["rumor_seeds"])

    def test_no_escape_routes_gives_empty_set(self):
        g = DiGraph.from_edges([("r", "c"), ("c", "r")], nodes=["z"])
        assert find_bridge_ends(g, ["r", "c"], ["r"]) == frozenset()

    def test_multi_seed_union(self, fig2):
        graph, communities, info = fig2
        # Each seed alone reaches all ends through the ring, so unions match.
        both = find_bridge_ends(graph, communities.members(0), info["rumor_seeds"])
        r1_only = find_bridge_ends(graph, communities.members(0), ["r1"])
        assert r1_only <= both


class TestBuildRfsts:
    def test_one_tree_per_seed(self, fig2):
        graph, communities, info = fig2
        trees = build_rfsts(graph, communities.members(0), info["rumor_seeds"])
        assert [t.root for t in trees] == list(info["rumor_seeds"])

    def test_tree_bridge_ends_union_matches(self, fig2):
        graph, communities, info = fig2
        trees = build_rfsts(graph, communities.members(0), info["rumor_seeds"])
        union = frozenset().union(*(t.bridge_ends for t in trees))
        assert union == info["bridge_ends"]

    def test_path_from_root(self, toy):
        graph, communities, info = toy
        (tree,) = build_rfsts(graph, communities.members(0), info["rumor_seeds"])
        path = tree.path_from_root("b")
        assert path[0] == "r" and path[-1] == "b"
        assert tree.depth_of("b") == len(path) - 1 == 2

    def test_path_for_missing_node_raises(self, toy):
        graph, communities, info = toy
        (tree,) = build_rfsts(graph, communities.members(0), info["rumor_seeds"])
        with pytest.raises(NodeNotFoundError):
            tree.path_from_root("ghost")

    def test_contains(self, toy):
        graph, communities, info = toy
        (tree,) = build_rfsts(graph, communities.members(0), info["rumor_seeds"])
        assert "b" in tree
        assert "ghost" not in tree

    def test_duplicate_seeds_deduped(self, toy):
        graph, communities, info = toy
        trees = build_rfsts(graph, communities.members(0), ["r", "r"])
        assert len(trees) == 1


@st.composite
def instances(draw):
    """A random digraph, a community, and rumor seeds inside it."""
    nodes = draw(st.integers(min_value=2, max_value=12))
    pairs = st.tuples(
        st.integers(0, nodes - 1), st.integers(0, nodes - 1)
    ).filter(lambda pair: pair[0] != pair[1])
    graph = DiGraph()
    graph.add_nodes(range(nodes))
    graph.add_edges(draw(st.lists(pairs, max_size=nodes * 3)))
    community = draw(st.sets(st.integers(0, nodes - 1), min_size=1))
    seeds = draw(st.sets(st.sampled_from(sorted(community)), min_size=1))
    return graph, community, seeds


class TestBridgeEndDefinition:
    @settings(max_examples=150, deadline=None)
    @given(instances())
    def test_both_finders_equal_the_definition(self, instance):
        """Reached from the seeds, outside C, with an in-neighbor in C."""
        graph, community, seeds = instance
        reached = multi_source_distances(graph, seeds)
        definition = frozenset(
            node
            for node in reached
            if node not in community
            and any(tail in community for tail in graph.predecessors(node))
        )
        assert find_bridge_ends(graph, community, seeds) == definition
        indexed = graph.to_indexed()  # labels are ids 0..n-1
        assert find_bridge_end_ids(indexed, community, seeds) == definition
