"""Property-based tests for structural helpers added late in the build:
views, k-core, arrival analysis, and community metrics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion.arrival import doam_arrival_times
from repro.diffusion.base import INACTIVE, INFECTED, PROTECTED
from repro.graph.digraph import DiGraph
from repro.graph.kcore import core_numbers
from repro.graph.subgraph import induced_subgraph


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=30,
        )
    )
    graph = DiGraph()
    graph.add_nodes(range(n))
    for tail, head in edges:
        if tail != head:
            graph.add_edge(tail, head)
    return graph


class TestViewInvariants:
    @given(small_digraphs())
    @settings(max_examples=50, deadline=None)
    def test_views_agree_with_direct_queries(self, graph):
        nodes = graph.nodes_view()
        edges = graph.edges_view()
        assert len(nodes) == graph.node_count
        assert len(edges) == graph.edge_count
        assert set(nodes) == set(graph.nodes())
        assert set(edges) == set(graph.edges())
        degrees = graph.degree_view("out")
        assert sum(degrees[n] for n in degrees) == graph.edge_count


class TestKCoreInvariants:
    @given(small_digraphs())
    @settings(max_examples=50, deadline=None)
    def test_core_bounded_by_degree(self, graph):
        cores = core_numbers(graph)
        for node, core in cores.items():
            sym_degree = len(
                (set(graph.successors(node)) | set(graph.predecessors(node)))
                - {node}
            )
            assert 0 <= core <= sym_degree

    @given(small_digraphs())
    @settings(max_examples=50, deadline=None)
    def test_k_core_subgraph_min_degree(self, graph):
        cores = core_numbers(graph)
        if not cores:
            return
        k = max(cores.values())
        sub = induced_subgraph(graph, [n for n, core in cores.items() if core >= k])
        # Inside the k-core every node keeps symmetrised degree >= k.
        for node in sub.nodes():
            sym_degree = len(
                (set(sub.successors(node)) | set(sub.predecessors(node))) - {node}
            )
            assert sym_degree >= k


class TestArrivalInvariants:
    @given(small_digraphs(), st.integers(0, 11), st.integers(0, 11))
    @settings(max_examples=60, deadline=None)
    def test_status_consistent_with_times(self, graph, rumor, protector):
        if rumor >= graph.node_count or protector >= graph.node_count:
            return
        if rumor == protector:
            return
        t_p, t_r, status = doam_arrival_times(
            graph, rumors=[rumor], protectors=[protector]
        )
        for node in graph.nodes():
            if status[node] == PROTECTED:
                assert t_p[node] <= t_r[node]
            elif status[node] == INFECTED:
                assert t_r[node] < t_p[node]
            else:
                assert status[node] == INACTIVE

    @given(small_digraphs(), st.integers(0, 11))
    @settings(max_examples=60, deadline=None)
    def test_rumor_only_times_equal_bfs(self, graph, rumor):
        if rumor >= graph.node_count:
            return
        from repro.graph.traversal import bfs_distances

        _, t_r, _ = doam_arrival_times(graph, rumors=[rumor])
        bfs = bfs_distances(graph, rumor)
        for node, hops in bfs.items():
            assert t_r[node] == float(hops)
