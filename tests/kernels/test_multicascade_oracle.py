"""Exact K=3 oracle tests: full live-edge enumeration, both priority rules.

The two-cascade exact-oracle suite (``test_exact_oracle.py``) pins the
kernels to an independent P-wins BFS race. This file repeats the exercise
for **three competing cascades** under both named priority rules:

* every backend must match an independent dict-based K-cascade race on
  each of the ``2^|E|`` live-edge worlds (IC, ``p = 0.5`` so the batch
  mean is the exact expectation);
* the scenario-layer oracle helpers in :mod:`repro.lcrb.multicascade`
  (``exact_race`` / ``exact_cascade_expectation``) must agree with the
  same independent race — they are themselves the ground truth for the
  scenario tests, so they get their own cross-check here;
* DOAM (deterministic, one world) and sampled LT/OPOAO worlds must agree
  across backends for K=3, which closes the backend-equivalence gap the
  K=2 suite cannot see.
"""

import itertools

import pytest

from repro.diffusion.base import INACTIVE, PRIORITY_RULES, CascadeSet
from repro.graph.digraph import DiGraph
from repro.kernels.registry import available_backends, resolve_backend
from repro.kernels.spec import KernelSpec
from repro.kernels.worlds import WorldBatch, sample_worlds
from repro.lcrb.multicascade import exact_cascade_expectation, exact_race

BACKENDS = available_backends()

MAX_HOPS = 8


def tiny_graph() -> "DiGraph":
    """7 edges: three seeds race for a contested middle (2^7 worlds)."""
    graph = DiGraph()
    graph.add_nodes(range(6))
    for tail, head in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 4), (4, 5)]:
        graph.add_edge(tail, head)
    return graph


def seed_configs(rule):
    return [
        CascadeSet([[0], [2], [1]], priority=rule),
        CascadeSet([[0], [4], []], priority=rule),  # one empty campaign
    ]


def oracle_race_k(graph, seeds, live_edges, max_hops):
    """Priority-ordered BFS race over explicit live ``(tail, head)`` pairs.

    Independent of both the kernels and ``repro.lcrb.multicascade`` —
    dict-based, labels not CSR positions — so a shared bug cannot hide.
    """
    adjacency = {node: [] for node in graph.nodes()}
    for tail, head in live_edges:
        adjacency[tail].append(head)
    state = {node: INACTIVE for node in graph.nodes()}
    fronts = []
    for cascade, members in enumerate(seeds.cascades):
        for node in members:
            state[node] = cascade + 1
        fronts.append(set(members))
    for _hop in range(max_hops):
        targets = [set() for _ in fronts]
        claimed = set()
        for cascade in seeds.priority:
            targets[cascade] = {
                head
                for tail in fronts[cascade]
                for head in adjacency[tail]
                if state[head] == INACTIVE and head not in claimed
            }
            claimed |= targets[cascade]
        if not claimed:
            break
        for cascade, chosen in enumerate(targets):
            for node in chosen:
                state[node] = cascade + 1
        fronts = targets
    return state


def enumerate_ic_worlds(graph):
    """All 2^|E| live-edge masks in CSR edge order, plus live edge lists."""
    indexed = graph.to_indexed()
    csr = indexed.csr()
    edges = [
        (tail, int(csr.indices[position]))
        for tail in range(csr.node_count)
        for position in range(csr.indptr[tail], csr.indptr[tail + 1])
    ]
    masks, live_lists = [], []
    for bits in itertools.product([False, True], repeat=len(edges)):
        masks.append(list(bits))
        live_lists.append([edge for edge, bit in zip(edges, bits) if bit])
    return indexed, masks, live_lists


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("rule", PRIORITY_RULES)
class TestThreeCascadeOracle:
    def test_ic_full_enumeration(self, backend_name, rule):
        graph = tiny_graph()
        indexed, masks, live_lists = enumerate_ic_worlds(graph)
        for seeds in seed_configs(rule):
            oracle_states = [
                oracle_race_k(graph, seeds, live, MAX_HOPS)
                for live in live_lists
            ]
            worlds = WorldBatch("ic", len(masks), MAX_HOPS, {"live": masks})
            backend = resolve_backend(backend_name)
            outcome = backend.run_worlds(
                indexed, KernelSpec("ic", probability=0.5), worlds, seeds,
                MAX_HOPS,
            )
            for world, states in enumerate(oracle_states):
                assert outcome.states_row(world) == [
                    states[node] for node in range(indexed.node_count)
                ]
            # p = 0.5 makes every world equiprobable: the batch means are
            # the exact per-cascade expectations.
            exact = exact_cascade_expectation(
                indexed, seeds, probability=0.5, max_hops=MAX_HOPS
            )
            for cascade in range(seeds.cascade_count):
                wanted = cascade + 1
                batch_mean = sum(
                    sum(
                        1
                        for value in outcome.states_row(world)
                        if value == wanted
                    )
                    for world in range(outcome.batch)
                ) / outcome.batch
                assert batch_mean == pytest.approx(exact[cascade], abs=1e-12)

    def test_doam_single_world(self, backend_name, rule):
        graph = tiny_graph()
        indexed = graph.to_indexed()
        for seeds in seed_configs(rule):
            states = oracle_race_k(graph, seeds, list(graph.edges()), MAX_HOPS)
            worlds = WorldBatch("doam", 1, MAX_HOPS, {})
            backend = resolve_backend(backend_name)
            outcome = backend.run_worlds(
                indexed, KernelSpec("doam"), worlds, seeds, MAX_HOPS
            )
            assert outcome.states_row(0) == [
                states[node] for node in range(indexed.node_count)
            ]


@pytest.mark.parametrize("rule", PRIORITY_RULES)
class TestScenarioOracleAgrees:
    """``repro.lcrb.multicascade.exact_race`` vs the independent race."""

    def test_exact_race_matches_per_world(self, rule):
        graph = tiny_graph()
        indexed, masks, live_lists = enumerate_ic_worlds(graph)
        for seeds in seed_configs(rule):
            for mask, live in zip(masks, live_lists):
                expected = oracle_race_k(graph, seeds, live, MAX_HOPS)
                assert exact_race(indexed, seeds, mask, MAX_HOPS) == [
                    expected[node] for node in range(indexed.node_count)
                ]


@pytest.mark.skipif(
    len(BACKENDS) < 2, reason="needs two backends to compare"
)
@pytest.mark.parametrize("rule", PRIORITY_RULES)
@pytest.mark.parametrize(
    "spec",
    [KernelSpec("ic", probability=0.4), KernelSpec("lt"), KernelSpec("opoao")],
    ids=lambda spec: spec.kind,
)
def test_backends_agree_on_sampled_k3_worlds(rule, spec):
    """Python and numpy kernels race K=3 identically on sampled worlds."""
    indexed = tiny_graph().to_indexed()
    seeds = CascadeSet([[0], [2], [1]], priority=rule)
    worlds = sample_worlds(indexed, spec, range(64), MAX_HOPS, seed=17)
    baseline = resolve_backend(BACKENDS[0]).run_worlds(
        indexed, spec, worlds, seeds, MAX_HOPS
    )
    for name in BACKENDS[1:]:
        outcome = resolve_backend(name).run_worlds(
            indexed, spec, worlds, seeds, MAX_HOPS
        )
        for world in range(outcome.batch):
            assert outcome.states_row(world) == baseline.states_row(world)
