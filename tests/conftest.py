"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings as hypothesis_settings

from repro.algorithms.base import SelectionContext
from repro.datasets.toy import figure1_graph, figure2_graph, two_community_toy
from repro.exec.pool import ParallelExecutor
from repro.graph.digraph import DiGraph
from repro.rng import RngStream

# The whole repository is seed-deterministic; make the property-based
# layer match (same examples every run, no cross-run flakes from narrow
# `assume` filters hitting unlucky generation seeds).
hypothesis_settings.register_profile("repro", derandomize=True)
hypothesis_settings.load_profile("repro")


@pytest.fixture
def rng() -> RngStream:
    """A fixed-seed stream; fork per-test features off it."""
    return RngStream(12345, name="test")


@pytest.fixture
def two_workers():
    """A two-worker executor, closed when the test ends."""
    with ParallelExecutor(2) as executor:
        yield executor


@pytest.fixture
def toy():
    """The minimal two-community toy: (graph, communities, info)."""
    return two_community_toy()


@pytest.fixture
def toy_context(toy) -> SelectionContext:
    graph, communities, info = toy
    return SelectionContext(
        graph, communities.members(info["rumor_community"]), info["rumor_seeds"]
    )


@pytest.fixture
def fig2():
    """The Fig. 2/3-style three-community toy: (graph, communities, info)."""
    return figure2_graph()


@pytest.fixture
def fig2_context(fig2) -> SelectionContext:
    graph, communities, info = fig2
    return SelectionContext(
        graph, communities.members(info["rumor_community"]), info["rumor_seeds"]
    )


@pytest.fixture
def fig1():
    """The Fig. 1 timestamp example: (graph, schedule)."""
    return figure1_graph()


@pytest.fixture
def diamond() -> DiGraph:
    """A 4-node diamond: s -> a, s -> b, a -> t, b -> t."""
    return DiGraph.from_edges([("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])


@pytest.fixture
def chain() -> DiGraph:
    """A directed 6-chain 0 -> 1 -> ... -> 5."""
    return DiGraph.from_edges([(i, i + 1) for i in range(5)])


@pytest.fixture
def cycle() -> DiGraph:
    """A directed 5-cycle."""
    return DiGraph.from_edges([(i, (i + 1) % 5) for i in range(5)])
