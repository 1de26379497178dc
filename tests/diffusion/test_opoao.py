"""Unit tests for the OPOAO model (Section III.A)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion.base import (
    INACTIVE,
    INFECTED,
    PROTECTED,
    SeedSets,
    seeded_start,
)
from repro.diffusion.opoao import OPOAOModel, opoao_race
from repro.graph.digraph import DiGraph
from repro.rng import RngStream
from tests.diffusion.test_legacy_differential import diffusion_instances


def run(graph, rumors, protectors=(), rng=None, max_hops=50):
    indexed = graph.to_indexed()
    seeds = SeedSets(
        rumors=indexed.indices(rumors), protectors=indexed.indices(protectors)
    )
    outcome = OPOAOModel().run(
        indexed, seeds, rng=rng or RngStream(1), max_hops=max_hops
    )
    return indexed, outcome


class TestMechanics:
    def test_single_out_neighbor_always_chosen(self, chain):
        # On a chain every node has exactly one target: spread is
        # deterministic, one hop per step.
        _, outcome = run(chain, rumors=[0])
        assert outcome.trace.infected[:6] == [1, 2, 3, 4, 5, 6]

    def test_one_activation_per_node_per_step(self):
        # A star center with many leaves activates at most one leaf per
        # step (one-activate-ONE, unlike DOAM).
        star = DiGraph.from_edges([(0, i) for i in range(1, 8)])
        _, outcome = run(star, rumors=[0])
        newly = [len(batch) for batch in outcome.trace.newly_infected[1:]]
        assert all(count <= 1 for count in newly)

    def test_repeat_selection_slows_spread(self):
        # With 7 leaves, full infection needs at least 7 steps.
        star = DiGraph.from_edges([(0, i) for i in range(1, 8)])
        _, outcome = run(star, rumors=[0], max_hops=500)
        assert outcome.infected_count == 8
        first_full = outcome.trace.infected.index(8)
        assert first_full >= 7

    def test_progressive_counts_non_decreasing(self, rng):
        g = DiGraph.from_edges([(i, (i * 3 + 1) % 20) for i in range(20)])
        _, outcome = run(g, rumors=[0], rng=rng)
        for earlier, later in zip(outcome.trace.infected, outcome.trace.infected[1:]):
            assert later >= earlier

    def test_deterministic_given_stream(self, cycle):
        _, a = run(cycle, rumors=[0], rng=RngStream(7))
        _, b = run(cycle, rumors=[0], rng=RngStream(7))
        assert a.states == b.states

    def test_different_streams_can_differ(self):
        star = DiGraph.from_edges([(0, i) for i in range(1, 8)])
        outcomes = set()
        for seed in range(10):
            _, outcome = run(star, rumors=[0], rng=RngStream(seed), max_hops=1)
            outcomes.add(tuple(outcome.states))
        assert len(outcomes) > 1  # the chosen first leaf varies


class TestPriorityAndCompetition:
    def test_p_priority_on_simultaneous_target(self):
        # Both seeds have a single shared out-neighbor: they must both
        # target it on step 1, and P wins.
        g = DiGraph.from_edges([("r", "m"), ("p", "m")])
        indexed, outcome = run(g, rumors=["r"], protectors=["p"])
        assert outcome.states[indexed.index("m")] == PROTECTED

    def test_protected_node_blocks_rumor(self):
        # p -> a -> b chain with rumor far away: protector cascade takes
        # a and b; the rumor, arriving later, cannot flip them.
        g = DiGraph.from_edges(
            [("p", "a"), ("a", "b"), ("r", "x"), ("x", "y"), ("y", "a")]
        )
        indexed, outcome = run(g, rumors=["r"], protectors=["p"], max_hops=200)
        assert outcome.states[indexed.index("a")] == PROTECTED
        assert outcome.states[indexed.index("b")] == PROTECTED

    def test_states_only_from_seed_cascades(self, rng):
        g = DiGraph.from_edges([(0, 1), (1, 2), (3, 4)])
        indexed, outcome = run(g, rumors=[0], protectors=[3], rng=rng)
        # Node 4 is reachable only from the protector seed.
        assert outcome.states[indexed.index(4)] == PROTECTED
        # Nodes 1, 2 only from the rumor seed.
        assert outcome.states[indexed.index(1)] == INFECTED


class TestTermination:
    def test_stops_when_no_inactive_reachable(self, cycle):
        # All nodes active after 4 hops; the trace must not keep recording
        # empty hops to the horizon.
        _, outcome = run(cycle, rumors=[0], max_hops=1000)
        assert outcome.trace.hops <= 10

    def test_zero_out_degree_seed(self):
        g = DiGraph.from_edges([], nodes=["lonely", "other"])
        g.add_edge("other", "lonely")
        indexed, outcome = run(g, rumors=["lonely"])
        assert outcome.infected_count == 1
        assert outcome.states[indexed.index("other")] == INACTIVE

    def test_horizon_respected(self):
        g = DiGraph.from_edges([(i, i + 1) for i in range(30)])
        _, outcome = run(g, rumors=[0], max_hops=5)
        assert outcome.infected_count == 6


def live_nodes(graph, states):
    """Active nodes with an inactive out-neighbor, in ascending id order."""
    return [
        node
        for node in range(graph.node_count)
        if states[node] != INACTIVE
        and any(states[head] == INACTIVE for head in graph.out[node])
    ]


class TestPicksContract:
    """``opoao_race`` asks ``picks`` once per hop for the live nodes."""

    @given(diffusion_instances(), st.integers(0, 200), st.integers(0, 12))
    @settings(max_examples=80, deadline=None)
    def test_one_call_per_hop_with_ascending_live_nodes(
        self, instance, seed, max_hops
    ):
        graph, rumors, protectors = instance
        indexed = graph.to_indexed()
        seeds = SeedSets(rumors=rumors, protectors=protectors)
        states, trace = seeded_start(indexed.node_count, seeds)
        uniform = OPOAOModel()._picker(indexed, RngStream(seed))
        calls = []

        def picks(nodes, hop):
            assert nodes == live_nodes(indexed, states)
            calls.append((hop, len(nodes)))
            return uniform(nodes, hop)

        total = opoao_race(indexed, states, seeds, trace, max_hops, picks)
        assert [hop for hop, _ in calls] == list(range(len(calls)))
        assert len(calls) == trace.hops - 1  # hop 0 holds the seeds
        assert all(count > 0 for _, count in calls)
        assert total == sum(count for _, count in calls)
        if len(calls) < max_hops:  # it stopped early: no node is live
            assert live_nodes(indexed, states) == []
