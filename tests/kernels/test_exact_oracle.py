"""Exact-oracle tests: full world enumeration on tiny graphs.

On graphs with ≤ 8 edges the whole randomness space is enumerable:

* **IC** with uniform probability ``p = 0.5`` — all ``2^|E|`` live-edge
  worlds are equiprobable, so feeding the *complete* enumeration as one
  :class:`~repro.kernels.worlds.WorldBatch` makes the batch mean the
  *exact* expectation;
* **LT** — a node's behaviour depends only on which ``1/d_in`` bucket
  its threshold falls in, so the product of bucket choices (each with
  probability ``1/d_in``) enumerates the distribution exactly;
* **OPOAO** — a node's pick depends only on ``floor(r * d_out)``, so the
  product of pick indices per (hop, node) enumerates the distribution;
* **DOAM** — deterministic, a single world.

The oracle itself is an independent micro-implementation in this file
(dict-based, no shared code with either backend), so a bug in the
reference backend cannot hide behind an identical bug here. Every
available backend must match the oracle world-for-world — and therefore
converge to the exact sigma.
"""

import itertools

import pytest

from repro.diffusion.base import INACTIVE, INFECTED, PROTECTED, SeedSets
from repro.graph.digraph import DiGraph
from repro.kernels.registry import available_backends, resolve_backend
from repro.kernels.spec import KernelSpec
from repro.kernels.worlds import WorldBatch, sample_worlds

BACKENDS = available_backends()

MAX_HOPS = 8


def tiny_graph() -> "DiGraph":
    """7 edges: a rumor/protector race with a contested middle."""
    graph = DiGraph()
    graph.add_nodes(range(6))
    for tail, head in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 4), (4, 5)]:
        graph.add_edge(tail, head)
    return graph


SEED_CONFIGS = [
    SeedSets(rumors=[0], protectors=[2]),
    SeedSets(rumors=[0]),
]


# -- independent per-world oracle (dict-based, BFS race) -----------------------


def oracle_race(graph, seeds, live_edges, max_hops):
    """P-priority BFS race over an explicit set of live ``(tail, head)``."""
    adjacency = {node: [] for node in graph.nodes()}
    for tail, head in live_edges:
        adjacency[tail].append(head)
    state = {node: INACTIVE for node in graph.nodes()}
    for node in seeds.protectors:
        state[node] = PROTECTED
    for node in seeds.rumors:
        state[node] = INFECTED
    front_p, front_i = set(seeds.protectors), set(seeds.rumors)
    for _hop in range(max_hops):
        targets_p = {
            head
            for tail in front_p
            for head in adjacency[tail]
            if state[head] == INACTIVE
        }
        targets_i = {
            head
            for tail in front_i
            for head in adjacency[tail]
            if state[head] == INACTIVE
        } - targets_p
        if not targets_p and not targets_i:
            break
        for node in targets_p:
            state[node] = PROTECTED
        for node in targets_i:
            state[node] = INFECTED
        front_p, front_i = targets_p, targets_i
    return state


def oracle_lt(graph, seeds, thresholds, max_hops):
    """Competitive LT on fixed thresholds, independent implementation."""
    in_deg = {node: 0 for node in graph.nodes()}
    adjacency = {node: [] for node in graph.nodes()}
    for tail, head in graph.edges():
        adjacency[tail].append(head)
        in_deg[head] += 1
    state = {node: INACTIVE for node in graph.nodes()}
    for node in seeds.protectors:
        state[node] = PROTECTED
    for node in seeds.rumors:
        state[node] = INFECTED
    weight = {
        kind: {node: 0.0 for node in graph.nodes()}
        for kind in (PROTECTED, INFECTED)
    }
    front = {PROTECTED: set(seeds.protectors), INFECTED: set(seeds.rumors)}
    for _hop in range(max_hops):
        if not front[PROTECTED] and not front[INFECTED]:
            break
        touched = set()
        for kind in (PROTECTED, INFECTED):
            for tail in front[kind]:
                for head in adjacency[tail]:
                    if state[head] == INACTIVE:
                        weight[kind][head] += 1.0 / max(1, in_deg[head])
                        touched.add(head)
        new = {PROTECTED: set(), INFECTED: set()}
        for node in touched:
            if weight[PROTECTED][node] + 1e-12 >= thresholds[node]:
                new[PROTECTED].add(node)
            elif weight[INFECTED][node] + 1e-12 >= thresholds[node]:
                new[INFECTED].add(node)
        if not new[PROTECTED] and not new[INFECTED]:
            break
        for kind in (PROTECTED, INFECTED):
            for node in new[kind]:
                state[node] = kind
        front = new
    return state


def oracle_opoao(graph, seeds, picks, max_hops):
    """OPOAO on a fixed pick table, independent implementation."""
    adjacency = {node: [] for node in graph.nodes()}
    for tail, head in graph.edges():
        adjacency[tail].append(head)
    state = {node: INACTIVE for node in graph.nodes()}
    for node in seeds.protectors:
        state[node] = PROTECTED
    for node in seeds.rumors:
        state[node] = INFECTED
    active = sorted(seeds.rumors | seeds.protectors)
    for hop in range(max_hops):
        if not any(
            state[head] == INACTIVE
            for tail in active
            for head in adjacency[tail]
        ):
            break
        targets = {PROTECTED: set(), INFECTED: set()}
        for node in active:
            neighbors = adjacency[node]
            if not neighbors:
                continue
            chosen = neighbors[
                min(int(picks[hop][node] * len(neighbors)), len(neighbors) - 1)
            ]
            if state[chosen] == INACTIVE:
                targets[state[node] if state[node] == PROTECTED else INFECTED].add(
                    chosen
                )
        targets[INFECTED] -= targets[PROTECTED]
        for kind in (PROTECTED, INFECTED):
            for node in targets[kind]:
                state[node] = kind
        active.extend(sorted(targets[PROTECTED] | targets[INFECTED]))
    return state


# -- world enumerations --------------------------------------------------------


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
        live_lists.append(
            [edge for edge, bit in zip(edges, bits) if bit]
        )
    return indexed, masks, live_lists


def enumerate_lt_worlds(graph):
    """Threshold-bucket product: representative (k - 0.5)/d per bucket."""
    indexed = graph.to_indexed()
    in_deg = {node: 0 for node in graph.nodes()}
    for _tail, head in graph.edges():
        in_deg[head] += 1
    nodes = sorted(graph.nodes())
    buckets = [max(1, in_deg[node]) for node in nodes]
    worlds = []
    for combo in itertools.product(*(range(b) for b in buckets)):
        worlds.append(
            {
                node: (k + 0.5) / buckets[i]
                for i, (node, k) in enumerate(zip(nodes, combo))
            }
        )
    return indexed, worlds


def enumerate_opoao_worlds(graph, hops):
    """Pick-index product: representative (idx + 0.5)/d per (hop, node)."""
    indexed = graph.to_indexed()
    out_deg = {node: 0 for node in graph.nodes()}
    for tail, _head in graph.edges():
        out_deg[tail] += 1
    nodes = sorted(graph.nodes())
    slots = [
        (hop, node, out_deg[node])
        for hop in range(hops)
        for node in nodes
        if out_deg[node] > 0
    ]
    worlds = []
    for combo in itertools.product(*(range(d) for _, _, d in slots)):
        table = [[0.5 for _ in nodes] for _ in range(hops)]
        for (hop, node, degree), index in zip(slots, combo):
            table[hop][node] = (index + 0.5) / degree
        worlds.append(table)
    return indexed, worlds


def mean_infected(states_list):
    return sum(
        sum(1 for value in states.values() if value == INFECTED)
        for states in states_list
    ) / len(states_list)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("seeds", SEED_CONFIGS, ids=["with-P", "no-P"])
class TestExactOracle:
    def test_ic_full_enumeration(self, backend_name, seeds):
        graph = tiny_graph()
        indexed, masks, live_lists = enumerate_ic_worlds(graph)
        oracle_states = [
            oracle_race(graph, seeds, live, MAX_HOPS) for live in live_lists
        ]
        worlds = WorldBatch("ic", len(masks), MAX_HOPS, {"live": masks})
        backend = resolve_backend(backend_name)
        outcome = backend.run_worlds(
            indexed, KernelSpec("ic", probability=0.5), worlds, seeds, MAX_HOPS
        )
        for world, states in enumerate(oracle_states):
            assert outcome.states_row(world) == [
                states[node] for node in range(indexed.node_count)
            ]
        exact_sigma = mean_infected(oracle_states)
        batch_sigma = sum(
            outcome.final_infected(world) for world in range(outcome.batch)
        ) / outcome.batch
        assert batch_sigma == pytest.approx(exact_sigma, abs=1e-12)

    def test_lt_bucket_enumeration(self, backend_name, seeds):
        graph = tiny_graph()
        indexed, threshold_worlds = enumerate_lt_worlds(graph)
        oracle_states = [
            oracle_lt(graph, seeds, thresholds, MAX_HOPS)
            for thresholds in threshold_worlds
        ]
        payload = [
            [world[node] for node in range(indexed.node_count)]
            for world in threshold_worlds
        ]
        worlds = WorldBatch(
            "lt", len(payload), MAX_HOPS, {"thresholds": payload}
        )
        backend = resolve_backend(backend_name)
        outcome = backend.run_worlds(
            indexed, KernelSpec("lt"), worlds, seeds, MAX_HOPS
        )
        for world, states in enumerate(oracle_states):
            assert outcome.states_row(world) == [
                states[node] for node in range(indexed.node_count)
            ]

    def test_opoao_pick_enumeration(self, backend_name, seeds):
        graph = tiny_graph()
        hops = 3
        indexed, pick_worlds = enumerate_opoao_worlds(graph, hops)
        oracle_states = [
            oracle_opoao(graph, seeds, picks, hops) for picks in pick_worlds
        ]
        worlds = WorldBatch(
            "opoao", len(pick_worlds), hops, {"picks": pick_worlds}
        )
        backend = resolve_backend(backend_name)
        outcome = backend.run_worlds(
            indexed, KernelSpec("opoao"), worlds, seeds, hops
        )
        for world, states in enumerate(oracle_states):
            assert outcome.states_row(world) == [
                states[node] for node in range(indexed.node_count)
            ]

    def test_doam_single_world(self, backend_name, seeds):
        graph = tiny_graph()
        indexed = graph.to_indexed()
        states = oracle_race(graph, seeds, list(graph.edges()), MAX_HOPS)
        worlds = WorldBatch("doam", 1, MAX_HOPS, {})
        backend = resolve_backend(backend_name)
        outcome = backend.run_worlds(
            indexed, KernelSpec("doam"), worlds, seeds, MAX_HOPS
        )
        assert outcome.states_row(0) == [
            states[node] for node in range(indexed.node_count)
        ]


#: The sampled convergence cases: IC keeps its original ids (one per
#: backend); LT and OPOAO add ``<kind>-<backend>`` cases.
SAMPLED_CASES = [
    pytest.param(kind, name, id=name if kind == "ic" else f"{kind}-{name}")
    for kind in ("ic", "lt", "opoao")
    for name in BACKENDS
]


def exact_means(kind, graph, seeds):
    """``(spec, hops, states per enumerated world)`` of one sampled case."""
    if kind == "ic":
        _, _, live_lists = enumerate_ic_worlds(graph)
        states = [oracle_race(graph, seeds, live, MAX_HOPS) for live in live_lists]
        return KernelSpec("ic", probability=0.5), MAX_HOPS, states
    if kind == "lt":
        _, worlds = enumerate_lt_worlds(graph)
        states = [oracle_lt(graph, seeds, world, MAX_HOPS) for world in worlds]
        return KernelSpec("lt"), MAX_HOPS, states
    hops = 3  # the pick enumeration's horizon
    _, tables = enumerate_opoao_worlds(graph, hops)
    states = [oracle_opoao(graph, seeds, table, hops) for table in tables]
    return KernelSpec("opoao"), hops, states


@pytest.mark.parametrize("kind, backend_name", SAMPLED_CASES)
def test_sampled_ic_converges_to_exact_sigma(kind, backend_name):
    """Sampled worlds converge to the enumerated expectation (CI bound).

    Both final counts are checked: on this graph LT's infected count is
    the same in every world, its protected count is not.
    """
    graph = tiny_graph()
    seeds = SEED_CONFIGS[0]
    spec, hops, states = exact_means(kind, graph, seeds)
    exact_infected = mean_infected(states)
    exact_protected = sum(
        sum(1 for value in world.values() if value == PROTECTED)
        for world in states
    ) / len(states)
    indexed = graph.to_indexed()
    backend = resolve_backend(backend_name)
    runs = 4000
    worlds = sample_worlds(indexed, spec, range(runs), hops, seed=11)
    outcome = backend.run_worlds(indexed, spec, worlds, seeds, hops)
    infected = sum(outcome.final_infected(w) for w in range(runs)) / runs
    protected = sum(outcome.final_protected(w) for w in range(runs)) / runs
    # both counts live in [1, 6]: sd <= 2.5, 4-sigma half-width.
    assert abs(infected - exact_infected) <= 4 * 2.5 / runs**0.5
    assert abs(protected - exact_protected) <= 4 * 2.5 / runs**0.5
