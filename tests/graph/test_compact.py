"""Unit tests for the IndexedDiGraph snapshot."""

import pytest

from repro.errors import NodeNotFoundError
from repro.graph.compact import CSRArrays, IndexedDiGraph
from repro.graph.digraph import DiGraph


class TestFromDigraph:
    def test_snapshot_preserves_structure(self, diamond):
        indexed = diamond.to_indexed()
        assert indexed.node_count == 4
        assert indexed.edge_count == 4
        s = indexed.index("s")
        t = indexed.index("t")
        assert len(indexed.out[s]) == 2
        assert len(indexed.inn[t]) == 2
        assert indexed.out_degree(s) == 2
        assert indexed.in_degree(t) == 2

    def test_labels_follow_insertion_order(self):
        g = DiGraph()
        for node in ("c", "a", "b"):
            g.add_node(node)
        indexed = g.to_indexed()
        assert indexed.labels == ("c", "a", "b")

    def test_repeated_snapshots_identical(self, diamond):
        first = diamond.to_indexed()
        second = diamond.to_indexed()
        assert first.labels == second.labels
        assert first.out == second.out
        assert first.inn == second.inn

    def test_round_trip_edges(self, chain):
        indexed = chain.to_indexed()
        rebuilt = {
            (indexed.labels[u], indexed.labels[v])
            for u in range(indexed.node_count)
            for v in indexed.out[u]
        }
        assert rebuilt == set(chain.edges())


class TestAccessors:
    def test_index_of_missing_label_raises(self, diamond):
        indexed = diamond.to_indexed()
        with pytest.raises(NodeNotFoundError):
            indexed.index("ghost")

    def test_indices_and_label_set(self, diamond):
        indexed = diamond.to_indexed()
        ids = indexed.indices(["a", "b"])
        assert indexed.label_set(ids) == {"a", "b"}

    def test_len(self, diamond):
        assert len(diamond.to_indexed()) == 4


class TestValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            IndexedDiGraph(labels=["a"], out=[[], []], inn=[[]])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            IndexedDiGraph(labels=["a", "a"], out=[[], []], inn=[[], []])

    def test_immutability_via_tuples(self, diamond):
        indexed = diamond.to_indexed()
        assert isinstance(indexed.out, tuple)
        assert all(isinstance(row, tuple) for row in indexed.out)


class TestCSRMemoization:
    def test_csr_returns_cached_instance(self, diamond):
        # The CSR export feeds every kernel call and every graph
        # publication; rebuilding it per call would dominate small runs.
        indexed = diamond.to_indexed()
        assert indexed.csr() is indexed.csr()

    def test_cached_csr_matches_adjacency(self, chain):
        indexed = chain.to_indexed()
        csr = indexed.csr()
        for node in range(indexed.node_count):
            assert csr.row(node) == indexed.out[node]

    def test_from_csr_round_trip_uses_fresh_cache(self, diamond):
        indexed = diamond.to_indexed()
        csr = indexed.csr()
        rebuilt = IndexedDiGraph.from_csr(
            indexed.labels, csr.indptr, csr.indices, csr.weights
        )
        assert rebuilt.csr() is not csr
        assert rebuilt.csr().indptr == csr.indptr
        assert rebuilt.csr().indices == csr.indices
        assert rebuilt.csr().weights == csr.weights

    def test_export_equals_the_element_wise_construction(self):
        """The tuples built straight from the rows equal the re-boxed
        ``CSRArrays`` of concatenated rows, value and type, also after an
        in-place update (int weights included)."""
        graph = DiGraph()
        graph.add_nodes(range(6))
        for tail, head, weight in [
            (0, 1, 2), (0, 3, 0.5), (1, 2, 1.0), (3, 4, 3), (4, 5, 0.25),
        ]:
            graph.add_edge(tail, head, weight)
        indexed = graph.to_indexed()

        def assert_export_matches():
            indptr, indices, weights = [0], [], []
            for row, row_weights in zip(indexed.out, indexed.out_weights):
                indices.extend(row)
                weights.extend(row_weights)
                indptr.append(len(indices))
            expected = CSRArrays(indptr, indices, weights)
            csr = indexed.csr()
            for name in ("indptr", "indices", "weights"):
                got, want = getattr(csr, name), getattr(expected, name)
                assert type(got) is tuple and got == want
                assert [type(value) for value in got] == [
                    type(value) for value in want
                ]

        assert_export_matches()
        indexed.apply_updates([(5, 0, 4), (2, 3)], [(0, 1)])
        assert_export_matches()
