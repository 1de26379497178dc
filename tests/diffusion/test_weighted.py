"""Unit tests for the weighted diffusion variants."""

from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion.base import INFECTED, SeedSets, seeded_start
from repro.diffusion.ic import CompetitiveICModel
from repro.diffusion.opoao import OPOAOModel, opoao_race
from repro.graph.digraph import DiGraph
from repro.rng import RngStream
from tests.diffusion.test_legacy_differential import diffusion_instances


def frozen_weighted_pick(graph, rng):
    """The weighted OPOAO ``pick(node, hop)`` as it drew before picks were
    batched per hop: its draws per node, and its hand-written search."""
    out = graph.out
    cumulative = {}

    def pick(node, hop):
        neighbors = out[node]
        if len(neighbors) == 1:
            return neighbors[rng.randrange(1)]
        table = cumulative.get(node)
        if table is None:
            weights = accumulate(graph.out_weights[node], initial=0.0)
            table = cumulative[node] = list(weights)[1:]
        target_mass = rng.random() * table[-1]
        lo, hi = 0, len(table) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if table[mid] <= target_mass:
                lo = mid + 1
            else:
                hi = mid
        return neighbors[lo]

    return pick


def per_node(pick):
    """``picks(nodes, hop)`` asking ``pick(node, hop)`` node by node."""
    return lambda nodes, hop: [pick(node, hop) for node in nodes]


class TestIndexedWeights:
    def test_weights_carried_by_snapshot(self):
        g = DiGraph()
        g.add_edge(0, 1, weight=2.5)
        g.add_edge(0, 2, weight=0.5)
        indexed = g.to_indexed()
        zero = indexed.index(0)
        pairs = dict(zip(indexed.out[zero], indexed.out_weights[zero]))
        assert pairs == {indexed.index(1): 2.5, indexed.index(2): 0.5}

    def test_default_weights_are_unit(self):
        from repro.graph.compact import IndexedDiGraph

        indexed = IndexedDiGraph(["a", "b"], [[1], []], [[], [0]])
        assert indexed.out_weights == ((1.0,), ())

    def test_mismatched_weights_rejected(self):
        from repro.graph.compact import IndexedDiGraph

        with pytest.raises(ValueError):
            IndexedDiGraph(["a", "b"], [[1], []], [[], [0]], out_weights=[[1.0, 2.0], []])


class TestWeightedOpoao:
    def test_heavy_edge_dominates_first_pick(self):
        # 0 -> 1 with weight 1000, 0 -> 2 with weight 0.001: the first
        # activation is node 1 in essentially every realisation.
        g = DiGraph()
        g.add_edge(0, 1, weight=1000.0)
        g.add_edge(0, 2, weight=0.001)
        indexed = g.to_indexed()
        model = OPOAOModel(weighted=True)
        first_picks = set()
        for seed in range(20):
            outcome = model.run(
                indexed, SeedSets(rumors=[indexed.index(0)]),
                rng=RngStream(seed), max_hops=1,
            )
            first_picks.update(outcome.trace.newly_infected[1])
        assert first_picks == {indexed.index(1)}

    def test_uniform_weights_match_plain_opoao(self, chain):
        indexed = chain.to_indexed()
        seeds = SeedSets(rumors=[0])
        plain = OPOAOModel().run(indexed, seeds, rng=RngStream(3), max_hops=30)
        weighted = OPOAOModel(weighted=True).run(
            indexed, seeds, rng=RngStream(3), max_hops=30
        )
        # On a chain each node has one neighbor: identical behaviour.
        assert plain.states == weighted.states

    def test_name_reflects_variant(self):
        assert OPOAOModel().name == "OPOAO"
        assert OPOAOModel(weighted=True).name == "OPOAO-W"

    @given(
        diffusion_instances(),
        st.lists(st.sampled_from([0.25, 0.5, 1.0, 3.0]), min_size=36, max_size=36),
        st.integers(0, 200),
    )
    @settings(max_examples=80, deadline=None)
    def test_draws_match_frozen_per_node_picker(self, instance, weights, seed):
        graph, rumors, protectors = instance
        weighted = DiGraph()
        weighted.add_nodes(graph.nodes())
        for (tail, head), weight in zip(graph.edges(), weights):
            weighted.add_edge(tail, head, weight=weight)
        indexed = weighted.to_indexed()
        seeds = SeedSets(
            rumors=indexed.indices(rumors), protectors=indexed.indices(protectors)
        )
        runs = []
        for batched in (True, False):
            rng = RngStream(seed)
            if batched:
                picks = OPOAOModel(weighted=True)._picker(indexed, rng)
            else:
                picks = per_node(frozen_weighted_pick(indexed, rng))
            states, trace = seeded_start(indexed.node_count, seeds)
            total = opoao_race(indexed, states, seeds, trace, 12, picks)
            runs.append((states, trace.series, trace.newly, total, rng.state_dict()))
        assert runs[0] == runs[1]


class TestWeightedIC:
    def test_weight_one_edges_always_fire(self):
        g = DiGraph()
        g.add_edge(0, 1, weight=1.0)
        indexed = g.to_indexed()
        outcome = CompetitiveICModel(probability=None).run(
            indexed, SeedSets(rumors=[indexed.index(0)]), rng=RngStream(1)
        )
        assert outcome.states[indexed.index(1)] == INFECTED

    def test_near_zero_weight_rarely_fires(self):
        g = DiGraph()
        g.add_edge(0, 1, weight=1e-9)
        indexed = g.to_indexed()
        model = CompetitiveICModel(probability=None)
        fired = sum(
            model.run(
                indexed, SeedSets(rumors=[indexed.index(0)]), rng=RngStream(seed)
            ).states[indexed.index(1)]
            == INFECTED
            for seed in range(50)
        )
        assert fired == 0

    def test_out_of_range_weight_rejected(self):
        g = DiGraph()
        g.add_edge(0, 1, weight=5.0)
        indexed = g.to_indexed()
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            CompetitiveICModel(probability=None).run(
                indexed, SeedSets(rumors=[indexed.index(0)]), rng=RngStream(2)
            )

    def test_fixed_probability_ignores_weights(self):
        g = DiGraph()
        g.add_edge(0, 1, weight=1e-9)
        indexed = g.to_indexed()
        outcome = CompetitiveICModel(probability=1.0).run(
            indexed, SeedSets(rumors=[indexed.index(0)]), rng=RngStream(3)
        )
        assert outcome.states[indexed.index(1)] == INFECTED

    def test_name_reflects_variant(self):
        assert CompetitiveICModel(probability=None).name == "IC-W"
