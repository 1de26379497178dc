"""Unit tests for random-graph generators."""

from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.graph.generators import (
    _weighted_index,
    barabasi_albert,
    erdos_renyi,
    planted_partition,
    powerlaw_community_digraph,
    powerlaw_sizes,
    watts_strogatz,
)
from repro.rng import RngStream


class TestErdosRenyi:
    def test_p_zero_no_edges(self, rng):
        g = erdos_renyi(20, 0.0, rng)
        assert g.node_count == 20
        assert g.edge_count == 0

    def test_p_one_complete(self, rng):
        g = erdos_renyi(6, 1.0, rng)
        assert g.edge_count == 6 * 5

    def test_undirected_symmetric(self, rng):
        g = erdos_renyi(15, 0.5, rng, directed=False)
        for tail, head in g.edges():
            assert g.has_edge(head, tail)

    def test_deterministic_given_stream(self):
        a = erdos_renyi(30, 0.2, RngStream(5))
        b = erdos_renyi(30, 0.2, RngStream(5))
        assert sorted(a.edges()) == sorted(b.edges())

    def test_invalid_params(self, rng):
        with pytest.raises(ValidationError):
            erdos_renyi(0, 0.5, rng)
        with pytest.raises(ValidationError):
            erdos_renyi(10, 1.5, rng)


class TestBarabasiAlbert:
    def test_node_and_min_edge_counts(self, rng):
        g = barabasi_albert(50, 3, rng)
        assert g.node_count == 50
        # Each of the 50 - 4 late nodes adds m=3 symmetric edges.
        assert g.edge_count >= 2 * 3 * (50 - 4)

    def test_symmetric(self, rng):
        g = barabasi_albert(30, 2, rng)
        for tail, head in g.edges():
            assert g.has_edge(head, tail)

    def test_heavy_tail_exists(self, rng):
        g = barabasi_albert(300, 2, rng)
        max_degree = max(g.out_degree(n) for n in g.nodes())
        assert max_degree >= 15  # hubs emerge

    def test_m_ge_n_rejected(self, rng):
        with pytest.raises(ValidationError):
            barabasi_albert(5, 5, rng)


class TestWattsStrogatz:
    def test_no_rewiring_is_lattice(self, rng):
        g = watts_strogatz(12, 4, 0.0, rng)
        for u in range(12):
            assert g.has_edge(u, (u + 1) % 12)
            assert g.has_edge(u, (u + 2) % 12)

    def test_rewired_graph_same_node_count(self, rng):
        g = watts_strogatz(20, 4, 0.5, rng)
        assert g.node_count == 20
        g.validate()

    def test_odd_k_rejected(self, rng):
        with pytest.raises(ValidationError):
            watts_strogatz(10, 3, 0.1, rng)


class TestPlantedPartition:
    def test_membership_matches_sizes(self, rng):
        _, membership = planted_partition([4, 6], 0.9, 0.05, rng)
        counts = {}
        for cid in membership.values():
            counts[cid] = counts.get(cid, 0) + 1
        assert counts == {0: 4, 1: 6}

    def test_extremes_give_disconnected_cliques(self, rng):
        g, membership = planted_partition([5, 5], 1.0, 0.0, rng)
        for tail, head in g.edges():
            assert membership[tail] == membership[head]
        # Each block is a complete directed subgraph.
        assert g.edge_count == 2 * 5 * 4

    def test_intra_denser_than_inter(self, rng):
        g, membership = planted_partition([30, 30], 0.3, 0.02, rng)
        intra = sum(1 for t, h in g.edges() if membership[t] == membership[h])
        inter = g.edge_count - intra
        assert intra > inter

    def test_bad_sizes_rejected(self, rng):
        with pytest.raises(ValidationError):
            planted_partition([], 0.5, 0.1, rng)
        with pytest.raises(ValidationError):
            planted_partition([3, 0], 0.5, 0.1, rng)


class TestPowerlawSizes:
    def test_sum_exact(self, rng):
        sizes = powerlaw_sizes(1000, 12, rng)
        assert sum(sizes) == 1000
        assert len(sizes) == 12

    def test_minimum_respected(self, rng):
        sizes = powerlaw_sizes(500, 20, rng, minimum=5)
        assert min(sizes) >= 5

    def test_infeasible_rejected(self, rng):
        with pytest.raises(ValidationError):
            powerlaw_sizes(10, 20, rng, minimum=3)

    def test_heterogeneous(self, rng):
        sizes = powerlaw_sizes(2000, 15, rng)
        assert max(sizes) > 2 * min(sizes)


class TestPowerlawCommunityDigraph:
    def test_basic_statistics(self, rng):
        g, membership = powerlaw_community_digraph(
            400, avg_degree=8.0, mixing=0.1, rng=rng
        )
        assert g.node_count == 400
        assert set(membership) == set(range(400))
        # Duplicate-resampling may fall slightly short of the edge budget.
        assert g.edge_count > 0.8 * 400 * 8

    def test_mixing_fraction_roughly_honoured(self, rng):
        g, membership = powerlaw_community_digraph(
            500, avg_degree=8.0, mixing=0.1, rng=rng
        )
        inter = sum(1 for t, h in g.edges() if membership[t] != membership[h])
        fraction = inter / g.edge_count
        assert 0.04 <= fraction <= 0.2

    def test_symmetric_mode(self, rng):
        g, _ = powerlaw_community_digraph(
            200, avg_degree=6.0, mixing=0.1, rng=rng, symmetric=True
        )
        for tail, head in g.edges():
            assert g.has_edge(head, tail)

    def test_deterministic_given_stream(self):
        a, ma = powerlaw_community_digraph(150, 6.0, 0.1, RngStream(3))
        b, mb = powerlaw_community_digraph(150, 6.0, 0.1, RngStream(3))
        assert sorted(a.edges()) == sorted(b.edges())
        assert ma == mb

    def test_explicit_community_count(self, rng):
        _, membership = powerlaw_community_digraph(
            300, 6.0, 0.1, rng, n_communities=7
        )
        assert len(set(membership.values())) == 7


def frozen_weighted_index(cumulative, rng):
    """``_weighted_index`` as it searched before it used ``bisect``."""
    target = rng.random() * cumulative[-1]
    lo, hi = 0, len(cumulative) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cumulative[mid] <= target:
            lo = mid + 1
        else:
            hi = mid
    return lo


class FixedDraw:
    """A stream stand-in whose ``random()`` returns one chosen value."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


@st.composite
def tables_and_draws(draw):
    """An integer cumulative table whose total is a power of two, so a
    draw of ``entry / total`` lands exactly on ``entry``, plus a draw:
    on an entry, or anywhere in [0, 1)."""
    gaps = draw(st.lists(st.integers(0, 6), min_size=1, max_size=12))
    table = [float(value) for value in accumulate(gaps)]
    total = 1 << max(0, int(table[-1]) - 1).bit_length()
    table[-1] = float(total)  # may tie the entry before it
    on_entry = st.sampled_from(table).map(lambda entry: entry / total)
    value = draw(st.one_of(on_entry, st.floats(0.0, 1.0, exclude_max=True)))
    return table, value


class TestWeightedIndex:
    """The bisect search returns the frozen loop's index on every input."""

    @given(tables_and_draws())
    @settings(max_examples=300, deadline=None)
    def test_matches_frozen_loop(self, case):
        table, value = case
        expected = frozen_weighted_index(table, FixedDraw(value))
        assert _weighted_index(table, FixedDraw(value)) == expected

    @given(
        st.lists(st.floats(0.0, 1e6), min_size=1, max_size=20),
        st.integers(0, 2**32),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_frozen_loop_on_a_stream(self, gaps, seed):
        table = list(accumulate(gaps))
        assert _weighted_index(table, RngStream(seed)) == frozen_weighted_index(
            table, RngStream(seed)
        )

    def test_ties_and_exact_hits(self):
        table = [1.0, 1.0, 3.0, 3.0, 4.0]
        for value, index in ((0.0, 0), (0.25, 2), (0.5, 2), (0.75, 4), (0.9, 4)):
            assert _weighted_index(table, FixedDraw(value)) == index
            assert frozen_weighted_index(table, FixedDraw(value)) == index

    def test_one_entry_table(self):
        for value in (0.0, 0.5, 0.999):
            assert _weighted_index([2.0], FixedDraw(value)) == 0
