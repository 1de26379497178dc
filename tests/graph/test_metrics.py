"""Unit tests for graph metrics."""

import pytest

from repro.graph.digraph import DiGraph
from repro.graph.metrics import (
    average_degree,
    density,
    reciprocity,
    summarize,
)


class TestDegreeStats:
    def test_average_degree(self, diamond):
        assert average_degree(diamond) == 1.0  # 4 edges / 4 nodes

    def test_average_degree_empty(self):
        assert average_degree(DiGraph()) == 0.0

    def test_density(self, diamond):
        assert density(diamond) == pytest.approx(4 / (4 * 3))

    def test_density_tiny(self):
        g = DiGraph()
        g.add_node(1)
        assert density(g) == 0.0

class TestReciprocity:
    def test_fully_reciprocal(self):
        g = DiGraph()
        g.add_symmetric_edge(1, 2)
        assert reciprocity(g) == 1.0

    def test_no_reciprocity(self, chain):
        assert reciprocity(chain) == 0.0

    def test_empty(self):
        assert reciprocity(DiGraph()) == 0.0


class TestSummary:
    def test_summarize_fields(self, diamond):
        summary = summarize(diamond)
        assert summary.nodes == 4
        assert summary.edges == 4
        assert summary.average_degree == 1.0
        assert 0 < summary.density < 1
        assert summary.reciprocity == 0.0

    def test_as_dict_and_str(self, diamond):
        summary = summarize(diamond)
        payload = summary.as_dict()
        assert payload["nodes"] == 4
        assert "|N|=4" in str(summary)
