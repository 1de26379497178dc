"""Unit tests for graph persistence."""

import io

import pytest

from repro.errors import DatasetError
from repro.graph.digraph import DiGraph
from repro.graph.io import (
    read_communities,
    read_edge_list,
    write_communities,
    write_edge_list,
)


class TestEdgeList:
    def test_round_trip_via_path(self, tmp_path, diamond):
        path = tmp_path / "g.edges"
        write_edge_list(diamond, path)
        loaded = read_edge_list(path, node_type=str)
        assert sorted(loaded.edges()) == sorted(diamond.edges())

    def test_round_trip_via_handle(self, chain):
        buffer = io.StringIO()
        write_edge_list(chain, buffer)
        buffer.seek(0)
        loaded = read_edge_list(buffer)
        assert sorted(loaded.edges()) == sorted(chain.edges())

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n1 2\n# mid\n2 3\n"
        loaded = read_edge_list(io.StringIO(text))
        assert loaded.edge_count == 2

    def test_bad_line_raises_with_line_number(self):
        with pytest.raises(DatasetError, match="line 2"):
            read_edge_list(io.StringIO("1 2\n1 2 3\n"))

    def test_bad_token_raises(self):
        with pytest.raises(DatasetError):
            read_edge_list(io.StringIO("a b\n"))  # default node_type=int

    def test_isolated_nodes_lost_in_edge_list(self, tmp_path):
        # Documented format limitation: edge lists carry edges only.
        g = DiGraph.from_edges([(1, 2)], nodes=[9])
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        loaded = read_edge_list(path)
        assert not loaded.has_node(9)


class TestCommunities:
    def test_round_trip(self, tmp_path):
        membership = {1: 0, 2: 0, 3: 1}
        path = tmp_path / "m.communities"
        write_communities(membership, path)
        assert read_communities(path) == membership

    def test_node_type_conversion(self):
        buffer = io.StringIO("# c\nalice 0\nbob 1\n")
        loaded = read_communities(buffer, node_type=str)
        assert loaded == {"alice": 0, "bob": 1}

    def test_malformed_line_raises(self):
        with pytest.raises(DatasetError, match="line 1"):
            read_communities(io.StringIO("1 2 3\n"))
