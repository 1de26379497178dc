"""Random-graph generators.

These are the substrate for the synthetic dataset replicas
(:mod:`repro.datasets.synthetic`): the paper's experiments need directed
networks with (a) community structure — dense inside, sparse across
(Section IV) — and (b) heavy-tailed degrees, since both real datasets are
social/collaboration networks.

Provided models:

* :func:`erdos_renyi` — G(n, p) baseline.
* :func:`barabasi_albert` — preferential attachment (heavy-tailed degrees).
* :func:`watts_strogatz` — small-world ring rewiring.
* :func:`planted_partition` — stochastic block model with equal intra/inter
  probabilities per side; ground-truth communities for testing detection.
* :func:`powerlaw_community_digraph` — the workhorse: heavy-tailed
  community sizes *and* node degrees with a controlled inter-community
  mixing fraction.

All generators take an :class:`repro.rng.RngStream` and are fully
deterministic given it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.graph.digraph import DiGraph
from repro.rng import RngStream
from repro.utils.validation import check_positive, check_probability

__all__ = [
    "erdos_renyi",
    "barabasi_albert",
    "watts_strogatz",
    "planted_partition",
    "powerlaw_sizes",
    "powerlaw_community_digraph",
]


def erdos_renyi(
    n: int, p: float, rng: RngStream, directed: bool = True, name: str = "er"
) -> DiGraph:
    """G(n, p): every ordered pair (u, v), u != v, is an edge w.p. ``p``.

    With ``directed=False`` each unordered pair is drawn once and added in
    both directions.
    """
    check_positive(n, "n")
    check_probability(p, "p")
    graph = DiGraph(name=name)
    graph.add_nodes(range(n))
    for u in range(n):
        start = u + 1 if not directed else 0
        for v in range(start, n):
            if u == v:
                continue
            if rng.random() < p:
                if directed:
                    graph.add_edge(u, v)
                else:
                    graph.add_symmetric_edge(u, v)
    return graph


def barabasi_albert(
    n: int, m: int, rng: RngStream, name: str = "ba"
) -> DiGraph:
    """Preferential attachment: each new node attaches to ``m`` targets.

    Targets are sampled proportionally to degree via the repeated-nodes
    trick. Edges are added symmetrically (the classic BA model is
    undirected).
    """
    check_positive(n, "n")
    check_positive(m, "m")
    if m >= n:
        raise ValidationError(f"m ({m}) must be < n ({n})")
    graph = DiGraph(name=name)
    graph.add_nodes(range(n))
    # Seed clique of m+1 nodes so every new node has m distinct targets.
    repeated: List[int] = []
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            graph.add_symmetric_edge(u, v)
            repeated.extend((u, v))
    for new_node in range(m + 1, n):
        targets: set = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        for target in targets:
            graph.add_symmetric_edge(new_node, target)
            repeated.extend((new_node, target))
    return graph


def watts_strogatz(
    n: int, k: int, beta: float, rng: RngStream, name: str = "ws"
) -> DiGraph:
    """Small-world ring lattice with rewiring probability ``beta``.

    Each node connects to its ``k`` nearest ring neighbors (``k`` even);
    each lattice edge is rewired to a random target w.p. ``beta``. Edges
    are symmetric.
    """
    check_positive(n, "n")
    check_positive(k, "k")
    check_probability(beta, "beta")
    if k % 2 != 0:
        raise ValidationError(f"k must be even, got {k}")
    if k >= n:
        raise ValidationError(f"k ({k}) must be < n ({n})")
    graph = DiGraph(name=name)
    graph.add_nodes(range(n))
    for u in range(n):
        for offset in range(1, k // 2 + 1):
            v = (u + offset) % n
            if rng.random() < beta:
                candidates = [w for w in range(n) if w != u and not graph.has_edge(u, w)]
                if candidates:
                    v = rng.choice(candidates)
            if not graph.has_edge(u, v):
                graph.add_symmetric_edge(u, v)
    return graph


def planted_partition(
    sizes: Sequence[int],
    p_in: float,
    p_out: float,
    rng: RngStream,
    directed: bool = True,
    name: str = "planted",
) -> Tuple[DiGraph, Dict[int, int]]:
    """Stochastic block model with planted ground-truth communities.

    Args:
        sizes: community sizes; nodes are numbered consecutively block by
            block.
        p_in: edge probability inside a block.
        p_out: edge probability across blocks.
        rng: random stream.
        directed: draw each ordered pair independently; otherwise draw
            unordered pairs and symmetrise.

    Returns:
        ``(graph, membership)`` where ``membership[node]`` is the planted
        community id.
    """
    check_probability(p_in, "p_in")
    check_probability(p_out, "p_out")
    if not sizes or any(s <= 0 for s in sizes):
        raise ValidationError(f"sizes must be positive, got {sizes!r}")
    membership: Dict[int, int] = {}
    node = 0
    for community_id, size in enumerate(sizes):
        for _ in range(size):
            membership[node] = community_id
            node += 1
    n = node
    graph = DiGraph(name=name)
    graph.add_nodes(range(n))
    for u in range(n):
        start = 0 if directed else u + 1
        for v in range(start, n):
            if u == v:
                continue
            p = p_in if membership[u] == membership[v] else p_out
            if rng.random() < p:
                if directed:
                    graph.add_edge(u, v)
                else:
                    graph.add_symmetric_edge(u, v)
    return graph, membership


def powerlaw_sizes(
    total: int,
    count: int,
    rng: RngStream,
    exponent: float = 1.6,
    minimum: int = 3,
) -> List[int]:
    """Draw ``count`` heavy-tailed sizes summing exactly to ``total``.

    Sizes are Pareto draws rescaled to the target sum; the largest
    communities absorb the rounding residue. Mirrors the broad community-size
    distribution of real social networks ([28] in the paper).
    """
    check_positive(total, "total")
    check_positive(count, "count")
    if count * minimum > total:
        raise ValidationError(
            f"cannot fit {count} communities of size >= {minimum} into {total} nodes"
        )
    raw = [rng.paretovariate(exponent) for _ in range(count)]
    scale = (total - count * minimum) / sum(raw)
    sizes = [minimum + int(value * scale) for value in raw]
    deficit = total - sum(sizes)
    # Distribute the rounding residue to the largest communities.
    order = sorted(range(count), key=lambda i: -sizes[i])
    index = 0
    while deficit > 0:
        sizes[order[index % count]] += 1
        deficit -= 1
        index += 1
    return sizes


def _weighted_index(cumulative: Sequence[float], rng: RngStream) -> int:
    """Sample an index proportional to the gaps of a cumulative-sum table:
    the first ``i`` with ``cumulative[i] > target``, clamped to the last."""
    target = rng.random() * cumulative[-1]
    return bisect_right(cumulative, target, 0, len(cumulative) - 1)


def powerlaw_community_digraph(
    n: int,
    avg_degree: float,
    mixing: float,
    rng: RngStream,
    n_communities: Optional[int] = None,
    size_exponent: float = 1.6,
    weight_exponent: float = 2.5,
    symmetric: bool = False,
    name: str = "plc",
) -> Tuple[DiGraph, Dict[int, int]]:
    """Directed community graph with heavy-tailed sizes and degrees.

    The generator fixes the directed-edge budget ``m = round(n *
    avg_degree)`` (the paper reports average degree as edges/nodes:
    367662/36692 ≈ 10.0) and splits it into an intra-community share
    ``(1 - mixing) * m`` and an inter-community share ``mixing * m``.
    Endpoints are sampled proportionally to per-node Pareto attractiveness
    weights, producing heavy-tailed in/out degrees.

    Args:
        n: number of nodes.
        avg_degree: target directed edges per node.
        mixing: fraction of edges crossing community boundaries (small =
            strong community structure; the paper's premise).
        rng: random stream.
        n_communities: number of communities; default ``max(4, n // 120)``.
        size_exponent: Pareto shape for community sizes.
        weight_exponent: Pareto shape for node attractiveness (degree tail).
        symmetric: add each sampled edge in both directions (collaboration
            networks such as Hep are undirected and then symmetrised —
            Section VI.A.2).

    Returns:
        ``(graph, membership)``.
    """
    check_positive(n, "n")
    check_positive(avg_degree, "avg_degree")
    check_probability(mixing, "mixing")
    if n_communities is None:
        n_communities = max(4, n // 120)
    sizes = powerlaw_sizes(n, n_communities, rng.fork("sizes"), exponent=size_exponent)

    membership: Dict[int, int] = {}
    members: List[List[int]] = []
    node = 0
    for community_id, size in enumerate(sizes):
        block = list(range(node, node + size))
        members.append(block)
        for member in block:
            membership[member] = community_id
        node += size

    graph = DiGraph(name=name)
    graph.add_nodes(range(n))

    weights = [rng.paretovariate(weight_exponent - 1.0) for _ in range(n)]

    # Cumulative weight tables: one per community and one global.
    community_cumulative: List[List[float]] = []
    for block in members:
        running, table = 0.0, []
        for member in block:
            running += weights[member]
            table.append(running)
        community_cumulative.append(table)
    global_cumulative: List[float] = []
    running = 0.0
    for u in range(n):
        running += weights[u]
        global_cumulative.append(running)
    community_mass = [table[-1] for table in community_cumulative]
    community_mass_cumulative: List[float] = []
    running = 0.0
    for mass in community_mass:
        running += mass
        community_mass_cumulative.append(running)

    m_total = int(round(n * avg_degree))
    if symmetric:
        m_total //= 2  # each sampled pair contributes two directed edges
    m_inter = int(round(m_total * mixing))
    m_intra = m_total - m_inter

    def add(u: int, v: int) -> bool:
        if u == v or graph.has_edge(u, v):
            return False
        if symmetric:
            graph.add_symmetric_edge(u, v)
        else:
            graph.add_edge(u, v)
        return True

    max_attempts = 50 * m_total + 1000
    attempts = 0
    added_intra = 0
    while added_intra < m_intra and attempts < max_attempts:
        attempts += 1
        community_id = _weighted_index(community_mass_cumulative, rng)
        block = members[community_id]
        if len(block) < 2:
            continue
        table = community_cumulative[community_id]
        u = block[_weighted_index(table, rng)]
        v = block[_weighted_index(table, rng)]
        if add(u, v):
            added_intra += 1

    added_inter = 0
    while added_inter < m_inter and attempts < max_attempts:
        attempts += 1
        u = _weighted_index(global_cumulative, rng)
        v = _weighted_index(global_cumulative, rng)
        if membership[u] == membership[v]:
            continue
        if add(u, v):
            added_inter += 1

    return graph, membership
