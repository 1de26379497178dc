"""Property-based tests for the graph substrate (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DiGraph
from repro.graph.subgraph import induced_subgraph
from repro.graph.traversal import bfs_distances, multi_source_distances


@st.composite
def small_digraphs(draw):
    """Random digraphs with up to 12 nodes and 30 edges."""
    n = draw(st.integers(min_value=1, max_value=12))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=30,
        )
    )
    graph = DiGraph()
    graph.add_nodes(range(n))
    for tail, head in edges:
        if tail != head:
            graph.add_edge(tail, head)
    return graph


@st.composite
def mutation_sequences(draw):
    """A graph built by a random add/remove sequence."""
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["add_edge", "remove_edge", "add_node", "remove_node"]),
                st.integers(min_value=0, max_value=8),
                st.integers(min_value=0, max_value=8),
            ),
            max_size=40,
        )
    )
    graph = DiGraph()
    for op, u, v in ops:
        if op == "add_edge" and u != v:
            graph.add_edge(u, v)
        elif op == "add_node":
            graph.add_node(u)
        elif op == "remove_edge" and graph.has_edge(u, v):
            graph.remove_edge(u, v)
        elif op == "remove_node" and graph.has_node(u):
            graph.remove_node(u)
    return graph


class TestGraphInvariants:
    @given(small_digraphs())
    @settings(max_examples=60, deadline=None)
    def test_in_out_degree_sums_equal_edge_count(self, graph):
        out_total = sum(graph.out_degree(n) for n in graph.nodes())
        in_total = sum(graph.in_degree(n) for n in graph.nodes())
        assert out_total == in_total == graph.edge_count

    @given(mutation_sequences())
    @settings(max_examples=60, deadline=None)
    def test_mutation_preserves_consistency(self, graph):
        graph.validate()

    @given(small_digraphs())
    @settings(max_examples=40, deadline=None)
    def test_reverse_preserves_degree_profile(self, graph):
        reverse = graph.reverse()
        for node in graph.nodes():
            assert graph.out_degree(node) == reverse.in_degree(node)
            assert graph.in_degree(node) == reverse.out_degree(node)

    @given(small_digraphs(), st.sets(st.integers(0, 11), max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_induced_subgraph_closed(self, graph, nodes):
        keep = {n for n in nodes if n in graph}
        sub = induced_subgraph(graph, keep)
        assert set(sub.nodes()) == keep
        for tail, head in sub.edges():
            assert graph.has_edge(tail, head)
        sub.validate()


class TestTraversalInvariants:
    @given(small_digraphs())
    @settings(max_examples=40, deadline=None)
    def test_distance_triangle_step(self, graph):
        # Each BFS distance is predecessor's distance + 1.
        distances = bfs_distances(graph, 0)
        for node, distance in distances.items():
            if distance == 0:
                continue
            assert any(
                distances.get(pred) == distance - 1
                for pred in graph.predecessors(node)
            )

    @given(small_digraphs())
    @settings(max_examples=40, deadline=None)
    def test_multi_source_is_min_of_singles(self, graph):
        sources = [n for n in (0, min(graph.node_count - 1, 3)) if n in graph]
        combined = multi_source_distances(graph, sources)
        singles = [bfs_distances(graph, s) for s in sources]
        for node, distance in combined.items():
            assert distance == min(
                d.get(node, float("inf")) for d in singles
            )
